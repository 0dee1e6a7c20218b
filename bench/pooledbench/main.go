// Command pooledbench measures pooledd end to end and layer by layer on
// four named workloads. It builds ./cmd/pooledd, boots fresh processes
// per run with default flags, drives them over HTTP from this one
// process with at most one connection per CPU, checks every sampled
// support against an in-process reference decode, and prints each
// metric as `<workload> <metric> <value> <unit>`, ending with one JSON
// line.
//
// From the repository root:
//
//	bash bench/run.sh -seed 1                       # all four workloads
//	bash bench/run.sh -workload sync-exact -seed 1 -seconds 28 -trace 0
//	bash bench/run.sh -workload sync-exact -seed 1 -trace 1   # per-layer run
//	bash bench/run.sh -compare base.json new.json   # gate a change
//
// -out FILE appends the run to a runs file that -compare reads.
// bench/README.md defines the workloads, metrics and bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a metric the benchmark declares in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a plain run reports, per workload, and
// BENCHMARK.json gates.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"recovered_frac", "ratio"},
}

// timing are the speed metrics a plain run prints and -compare judges
// against timingBound, but BENCHMARK.json does not gate: on a VM shared
// with other tenants their run-to-run spread is wider than any bound a
// gate may set (bench/README.md has the numbers).
var timing = []struct {
	metricDef
	higherBetter bool
}{
	{metricDef{"jobs_per_s", "1/s"}, true},
	{metricDef{"p50_ms", "ms"}, false},
	{metricDef{"p99_ms", "ms"}, false},
	{metricDef{"open_p50_ms", "ms"}, false},
	{metricDef{"cpu_ms_per_job", "ms"}, false},
}

// timingBound is the bound -compare judges the timing metrics by.
const timingBound = 0.10

// perLayer are the metrics a traced run reports, per workload. A metric
// of a layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"http.self_p50_ms", "ms"},
	{"http.req_bytes_mean", "bytes"},
	{"sse.events", "count"},
	{"frontend.cpu_ms_per_job", "ms"},
	{"worker.cpu_ms_per_job", "ms"},
	{"engine.submit_p50_us", "us"},
	{"engine.queue_p50_ms", "ms"},
	{"engine.queue_p99_ms", "ms"},
	{"engine.post_decode_p50_us", "us"},
	{"engine.jobs_rejected", "count"},
	{"engine.schemes_built", "count"},
	{"engine.cache_hits", "count"},
	{"decoder.mn.p50_ms", "ms"},
	{"decoder.mn.p99_ms", "ms"},
	{"decoder.mn-refined.p50_ms", "ms"},
	{"decoder.mn-refined.p99_ms", "ms"},
	{"decoder.calls", "count"},
	{"remote.rtt_p50_ms", "ms"},
	{"remote.rtt_p99_ms", "ms"},
	{"remote.worker_handle_p50_ms", "ms"},
	{"remote.wire_p50_ms", "ms"},
	{"remote.requests_single", "count"},
	{"remote.requests_batch", "count"},
	{"remote.jobs_per_request", "ratio"},
	{"remote.retries", "count"},
	{"remote.saturated", "count"},
	{"campaign.create_p50_ms", "ms"},
	{"campaign.dispatch_wait_p50_ms", "ms"},
	{"campaign.dispatch_wait_p99_ms", "ms"},
	{"campaign.offers_refused_ratio", "ratio"},
	{"campaign.offers", "count"},
	{"campaign.settle_to_event_p50_ms", "ms"},
	{"campaign.settle_to_event_p99_ms", "ms"},
	{"wal.appends", "count"},
	{"wal.fsyncs", "count"},
	{"wal.fsync_mean_ms", "ms"},
	{"wal.fsync_share", "ratio"},
	{"job.p50_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"open_p99_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.conn_wait_p99_ms", "ms"},
}

// diagnostics are the other metrics a plain run prints.
var diagnostics = []metricDef{
	{"error_frac", "ratio"},
	{"open_p99_ms", "ms"},
	{"gen.lateness_p99_ms", "ms"},
	{"gen.conn_wait_p99_ms", "ms"},
}

func main() { os.Exit(run()) }

func run() int {
	workloadName := flag.String("workload", "", "workload to run (default: all four, one after another)")
	seed := flag.Uint64("seed", 1, "seed of every input: designs, signals, noise and arrival schedules")
	seconds := flag.Int("seconds", phaseUnits, "seconds of load per workload run")
	traceRun := flag.Int("trace", 0, "1: make the traced run, which reports the per-layer metrics")
	out := flag.String("out", "", "append each run's result to this runs file (JSON), for -compare")
	compare := flag.Bool("compare", false, "compare two runs files: pooledbench -compare base.json new.json")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pooledbench:", err)
		return 1
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "pooledbench: -compare wants two runs files")
			return 2
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*traceRun != 0 && *traceRun != 1) {
		fmt.Fprintln(os.Stderr, "pooledbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var ws []workload
	if *workloadName == "" {
		ws = workloads
	} else {
		w, err := workloadByName(*workloadName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pooledbench:", err)
			return 2
		}
		ws = []workload{w}
	}

	// Every exit path stops the children: the deferred cleanup on return
	// or panic, and on SIGINT/SIGTERM the handler, which stops them at
	// once and cancels the run so it unwinds and removes its files.
	defer children.stopAll()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "pooledbench: %v: stopping\n", s)
		cancel()
		children.stopAll()
		time.Sleep(10 * time.Second) // the run should have unwound by now
		os.Exit(130)
	}()

	b := &bench{dir: filepath.Join(root, ".bench_build"), clients: runtime.NumCPU()}
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "pooledbench:", err)
		return 1
	}
	if b.bin, err = buildPooledd(root, b.dir); err != nil {
		fmt.Fprintln(os.Stderr, "pooledbench:", err)
		return 1
	}
	var results []*result
	for _, w := range ws {
		res, err := b.measure(ctx, w, *seed, *seconds, *traceRun == 1)
		if ctx.Err() != nil {
			return 130
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pooledbench: %s: %v\n", w.name, err)
			return 1
		}
		printResult(os.Stdout, res)
		results = append(results, res)
	}
	children.stopAll()
	survivors := children.survivors()
	for _, s := range survivors {
		fmt.Fprintln(os.Stderr, "pooledbench: child survived:", s)
	}
	if *out != "" {
		if err := appendRuns(*out, root, results); err != nil {
			fmt.Fprintln(os.Stderr, "pooledbench:", err)
			return 1
		}
	}
	if len(survivors) > 0 {
		return 1
	}
	line, correct := summaryLine(results, *traceRun == 1)
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

// printResult prints every metric of a run, one per line, with its sample
// count and the percentile taken, then any problems.
func printResult(f *os.File, res *result) {
	defs := append([]metricDef(nil), endToEnd...)
	for _, t := range timing {
		defs = append(defs, t.metricDef)
	}
	defs = append(defs, diagnostics...)
	if res.Trace {
		defs = append(append([]metricDef(nil), perLayer...), metricDef{"trace.path_sum_ratio", "ratio"})
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s %s %.6g %s", res.Workload, d.name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.P > 0 {
			line += fmt.Sprintf(" p=%g", m.P)
		}
		fmt.Fprintln(f, line)
	}
	stages := make([]string, 0, len(res.Stages))
	for name := range res.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		m := res.Stages[name]
		fmt.Fprintf(f, "%s stage.%s.self_ms %.6g ms n=%d\n", res.Workload, name, m.Value, m.N)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(f, "%s PROBLEM %s\n", res.Workload, p)
	}
}

// summaryLine is the last line of standard output: whether every output
// checked out, the jobs attempted and failed, and the declared metrics —
// the end-to-end ones, or the per-layer ones for a traced run. With more
// than one workload, metric names are prefixed with the workload.
func summaryLine(results []*result, traced bool) (string, bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, d := range defs {
			name := d.name
			if len(results) > 1 {
				name = res.Workload + "." + name
			}
			out.Metrics[name] = value{res.Metrics[d.name].Value, d.unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // only numbers and strings: cannot fail
	}
	return string(data), out.Correct
}

// runsFile accumulates runs for -compare and for the committed baseline.
type runsFile struct {
	Env     map[string]string                   `json:"env"`
	Runs    []*result                           `json:"runs"`
	Summary map[string]map[string]metricSummary `json:"summary"`
}

// metricSummary is a metric over the runs of one workload: its median
// and quartiles, and the medians of the first and second half of the
// runs, which should agree within the metric's bound.
type metricSummary struct {
	Runs       int        `json:"runs"`
	Median     float64    `json:"median"`
	Q1         float64    `json:"q1"`
	Q3         float64    `json:"q3"`
	Spread     float64    `json:"spread"`
	SetMedians [2]float64 `json:"set_medians"`
}

func readRuns(path string) (*runsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf runsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendRuns adds results to the runs file at path, creating it, and
// recomputes its summary.
func appendRuns(path, root string, results []*result) error {
	rf, err := readRuns(path)
	if os.IsNotExist(err) {
		rf, err = &runsFile{Env: environment(root)}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, results...)
	rf.Summary = summarize(rf.Runs)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// summarize groups the runs by workload, traced runs apart under
// "<workload>/trace", in the order they were taken.
func summarize(runs []*result) map[string]map[string]metricSummary {
	values := make(map[string]map[string][]float64)
	for _, r := range runs {
		key := r.Workload
		if r.Trace {
			key += "/trace"
		}
		if values[key] == nil {
			values[key] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			values[key][name] = append(values[key][name], m.Value)
		}
	}
	out := make(map[string]map[string]metricSummary)
	for w, byName := range values {
		out[w] = make(map[string]metricSummary)
		for name, vs := range byName {
			s := metricSummary{Runs: len(vs), Median: median(vs)}
			if len(vs) >= 2 {
				s.Q1, _, s.Q3 = quartiles(vs)
				if s.Median != 0 {
					s.Spread = (s.Q3 - s.Q1) / s.Median
				}
				s.SetMedians = [2]float64{median(vs[:len(vs)/2]), median(vs[len(vs)/2:])}
			}
			out[w][name] = s
		}
	}
	return out
}

// environment records what the numbers were taken on.
func environment(root string) map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"taken":      time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = root
	if rev, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(rev))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
				break
			}
		}
	}
	return env
}
