package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"pooleddata/internal/noise"
	"pooleddata/internal/rng"
)

// Phase lengths in units of run-seconds/28. A measured run is 3 units of
// warm-up, a 15-unit open phase and a 10-unit closed phase; the traced
// run is a 3-unit warm-up and a 7-unit open phase over HTTP, then two
// in-process replays of that open phase, each after a 2-unit warm-up.
const phaseUnits = 28

// setupBoots is how many times a run boots the deployment to time its
// set-up; the median is reported.
const setupBoots = 3

// checkJobs is the size of the sample checked against the in-process
// reference decode.
const checkJobs = 256

// bench holds what every run shares.
type bench struct {
	dir     string // build and scratch directory
	bin     string // the pooledd binary
	clients int    // concurrent senders and connections: the CPU count
}

// metric is one reported number. N is the sample count behind it and P
// the percentile reported, for percentile metrics.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	P     float64 `json:"p,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Start     time.Time         `json:"start"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Stages    map[string]metric `json:"stages,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// deployment is one boot of the workload's pooledd processes.
type deployment struct {
	procs   []*proc // the worker first when federated; the frontend last
	front   string  // frontend base URL
	schemes []string
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop(10 * time.Second)
	}
}

// boot starts the workload's processes with pooledd's default flags,
// changing only addresses, -worker/-workers and -wal-dir, and returns
// once every scheme has answered a decode; the duration is its set-up
// time.
func (b *bench) boot(ctx context.Context, w workload, gen *jobGen, dir string, n int) (*deployment, time.Duration, error) {
	start := time.Now()
	d := &deployment{}
	fail := func(err error) (*deployment, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	var args []string
	if w.federated {
		addr, err := freeAddr()
		if err != nil {
			return fail(err)
		}
		p, err := children.start(dir, b.bin, fmt.Sprintf("worker-%d", n), addr, "-worker")
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, p)
		if err := waitReady(ctx, p, "http://"+addr+"/shard/v1/health"); err != nil {
			return fail(err)
		}
		args = append(args, "-workers", addr)
	}
	if w.campaign {
		args = append(args, "-wal-dir", filepath.Join(dir, fmt.Sprintf("wal-%d", n)))
	}
	addr, err := freeAddr()
	if err != nil {
		return fail(err)
	}
	p, err := children.start(dir, b.bin, fmt.Sprintf("frontend-%d", n), addr, args...)
	if err != nil {
		return fail(err)
	}
	d.procs = append(d.procs, p)
	d.front = "http://" + addr
	if err := waitReady(ctx, p, d.front+"/v1/stats"); err != nil {
		return fail(err)
	}
	// Set-up answers one single-job decode per scheme, whatever the
	// workload sends later.
	tg := newHTTPTarget(d.front, workload{noise: w.noise}, 1)
	defer tg.close()
	shards := make(map[int]bool)
	for _, seed := range gen.seeds {
		body := fmt.Sprintf(`{"design":"random-regular","n":%d,"m":%d,"seed":%d}`, benchN, benchM, seed)
		var sc struct {
			ID    string `json:"id"`
			Shard int    `json:"shard"`
		}
		if err := tg.post(ctx, "/v1/schemes", []byte(body), http.StatusCreated, &sc); err != nil {
			return fail(fmt.Errorf("create scheme: %w\n%s", err, p.logTail()))
		}
		if shards[sc.Shard] {
			return fail(fmt.Errorf("designs %v share shard %d; the tenants would share its decode workers", gen.seeds, sc.Shard))
		}
		shards[sc.Shard] = true
		d.schemes = append(d.schemes, sc.ID)
	}
	tg.schemes = d.schemes
	for des := range d.schemes {
		t := &task{phase: phaseSetup, n: n, design: des, idx: []uint64{jobIndex(phaseSetup, n, des)}}
		t.ys = [][]int64{gen.counts(des, t.idx[0], gen.signal(t.idx[0]))}
		tg.prepare(t)
		if o := tg.issue(ctx, t, time.Now())[0]; o.err != nil {
			return fail(fmt.Errorf("set-up decode: %w\n%s", o.err, p.logTail()))
		}
	}
	return d, time.Since(start), nil
}

// scrape is the per-process state read at a phase boundary.
type scrape struct {
	cpu  []time.Duration
	prom []map[string]float64
}

func (d *deployment) scrape(ctx context.Context, withMetrics bool) (scrape, error) {
	var s scrape
	for _, p := range d.procs {
		c, err := p.cpuTime()
		if err != nil {
			return s, err
		}
		s.cpu = append(s.cpu, c)
		if !withMetrics {
			continue
		}
		text, err := get(ctx, "http://"+p.addr+"/metrics")
		if err != nil {
			return s, err
		}
		m, err := promSums(bytes.NewReader(text))
		if err != nil {
			return s, err
		}
		s.prom = append(s.prom, m)
	}
	return s, nil
}

// cpuEvery reads the deployment's total CPU time at start + i·step for
// i = 0..k.
func (d *deployment) cpuEvery(ctx context.Context, start time.Time, step time.Duration, k int) ([]time.Duration, error) {
	marks := make([]time.Duration, 0, k+1)
	for i := 0; i <= k; i++ {
		if !sleepCtx(ctx, time.Until(start.Add(time.Duration(i)*step))) {
			return nil, ctx.Err()
		}
		var total time.Duration
		for _, p := range d.procs {
			c, err := p.cpuTime()
			if err != nil {
				return nil, err
			}
			total += c
		}
		marks = append(marks, total)
	}
	return marks, nil
}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return data, err
}

// measure runs workload w once with seed over secs seconds of load. With
// traced set it makes the traced run instead, which reports the
// per-layer metrics.
func (b *bench) measure(ctx context.Context, w workload, seed uint64, secs int, traced bool) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: secs, Trace: traced, Start: time.Now(), Metrics: make(map[string]metric)}
	dir, err := os.MkdirTemp(b.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	gen, err := newJobGen(w, seed)
	if err != nil {
		return nil, err
	}
	unit := time.Duration(secs) * time.Second / phaseUnits
	clients, lanes := b.clients, 1
	if w.campaign {
		// One client per tenant, each with its own design, streaming its
		// campaign to done before sending the next.
		clients = min(clients, w.designs())
		lanes = clients
	}

	boots := setupBoots
	if traced {
		boots = 1
	}
	var setups []float64
	var dep *deployment
	for i := 0; i < boots; i++ {
		if dep != nil {
			dep.stop()
		}
		var d time.Duration
		if dep, d, err = b.boot(ctx, w, gen, dir, i); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer dep.stop()
	tg := newHTTPTarget(dep.front, w, clients)
	tg.schemes = dep.schemes
	defer tg.close()

	runOpen(ctx, tg, tasks(w, gen, phaseWarm), poisson(rng.DeriveSeed(seed, phaseWarm), w.rate, 3*unit), clients, lanes)
	openLen := 15 * unit
	if traced {
		openLen = 7 * unit
	}
	due := poisson(rng.DeriveSeed(seed, phaseOpen), w.rate, openLen)
	before, err := dep.scrape(ctx, traced)
	if err != nil {
		return nil, err
	}
	bytes0, events0 := tg.reqBytes.Load(), tg.sseEvents.Load()
	openWindows := int(openLen / unit)
	var cpuMarks []time.Duration
	var cpuErr error
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		cpuMarks, cpuErr = dep.cpuEvery(ctx, time.Now(), unit, openWindows)
	}()
	open := runOpen(ctx, tg, tasks(w, gen, phaseOpen), due, clients, lanes)
	<-sampled
	if cpuErr != nil {
		return nil, cpuErr
	}
	after, err := dep.scrape(ctx, traced)
	if err != nil {
		return nil, err
	}
	bytesOpen, eventsOpen := tg.reqBytes.Load()-bytes0, tg.sseEvents.Load()-events0
	var closed *phase
	if !traced {
		closed = runClosed(ctx, tg, tasks(w, gen, phaseClosed), 10*unit, clients, lanes)
	}
	var stats struct {
		SchemesBuilt uint64 `json:"schemes_built"`
		CacheHits    uint64 `json:"cache_hits"`
		JobsRejected uint64 `json:"jobs_rejected"`
	}
	statsJSON, err := get(ctx, dep.front+"/v1/stats")
	if err == nil {
		err = json.Unmarshal(statsJSON, &stats)
	}
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, p := range dep.procs {
		v, err := p.peakRSS()
		if err != nil {
			return nil, err
		}
		rss += v
	}
	tg.close()
	dep.stop()
	for _, p := range dep.procs {
		if p.err != nil {
			res.problem("%s exited uncleanly after SIGTERM: %v\n%s", p.name, p.err, p.logTail())
		}
	}

	res.Attempted, res.Failed = open.attempted, open.failed
	errs := open.errs
	if closed != nil {
		res.Attempted += closed.attempted
		res.Failed += closed.failed
		errs = append(errs, closed.errs...)
	}
	for _, e := range errs {
		res.problem("job failed: %s", e)
	}
	m := res.Metrics
	openJobs := len(open.lat)
	cpu := func(i int) float64 {
		if openJobs == 0 {
			return 0
		}
		return ms(after.cpu[i]-before.cpu[i]) / float64(openJobs)
	}
	// The gated timings are medians over one-unit windows, so a burst of
	// interference from outside the benchmark moves one window, not the
	// run.
	var openP50, cpuPerJob []float64
	for i, win := range open.windows(unit, openWindows) {
		if len(win) == 0 {
			continue
		}
		openP50 = append(openP50, win.p(50))
		cpuPerJob = append(cpuPerJob, ms(cpuMarks[i+1]-cpuMarks[i])/float64(len(win)))
	}
	openSorted := open.lat.sorted()
	m["open_p50_ms"] = metric{Value: median(openP50), Unit: "ms", N: openJobs, P: 50}
	p, v, _ := tail(openSorted, 99)
	m["open_p99_ms"] = metric{Value: v, Unit: "ms", N: openJobs, P: p}
	p, v, _ = tail(open.late.sorted(), 99)
	m["gen.lateness_p99_ms"] = metric{Value: v, Unit: "ms", N: len(open.late), P: p}
	p, v, _ = tail(open.connWait.sorted(), 99)
	m["gen.conn_wait_p99_ms"] = metric{Value: v, Unit: "ms", N: len(open.connWait), P: p}
	m["cpu_ms_per_job"] = metric{Value: median(cpuPerJob), Unit: "ms", N: openJobs}
	m["peak_rss_mb"] = metric{Value: rss, Unit: "MB"}
	m["error_frac"] = metric{Value: frac(res.Failed, res.Attempted), Unit: "ratio", N: res.Attempted}
	recovered := 0
	for idx, s := range open.supports {
		if slices.Equal(s, gen.signal(idx)) {
			recovered++
		}
	}
	m["recovered_frac"] = metric{Value: frac(recovered, len(open.supports)), Unit: "ratio", N: len(open.supports)}
	if closed != nil {
		m["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups)}
		var rate, p50 []float64
		for _, win := range closed.windows(unit, 10) {
			rate = append(rate, float64(len(win))/unit.Seconds())
			if len(win) > 0 {
				p50 = append(p50, win.p(50))
			}
		}
		closedSorted := closed.lat.sorted()
		m["jobs_per_s"] = metric{Value: median(rate), Unit: "1/s", N: len(closedSorted)}
		m["p50_ms"] = metric{Value: median(p50), Unit: "ms", N: len(closedSorted), P: 50}
		p, v, _ = tail(closedSorted, 99)
		m["p99_ms"] = metric{Value: v, Unit: "ms", N: len(closedSorted), P: p}
	}
	for _, msg := range checkSample(gen, open, b.clients) {
		res.problem("%s", msg)
	}

	if traced {
		m["http.req_bytes_mean"] = metric{Value: float64(bytesOpen) / float64(max(openJobs, 1)), Unit: "bytes", N: openJobs}
		m["sse.events"] = metric{Value: float64(eventsOpen), Unit: "count"}
		m["frontend.cpu_ms_per_job"] = metric{Value: cpu(len(dep.procs) - 1), Unit: "ms", N: openJobs}
		m["worker.cpu_ms_per_job"] = metric{Unit: "ms", N: openJobs}
		if w.federated {
			m["worker.cpu_ms_per_job"] = metric{Value: cpu(0), Unit: "ms", N: openJobs}
		}
		m["engine.jobs_rejected"] = metric{Value: float64(stats.JobsRejected), Unit: "count"}
		m["engine.schemes_built"] = metric{Value: float64(stats.SchemesBuilt), Unit: "count"}
		m["engine.cache_hits"] = metric{Value: float64(stats.CacheHits), Unit: "count"}
		counterMetrics(m, before.prom, after.prom, openLen)
		if err := b.traceReplay(ctx, res, w, gen, dir, due, open, unit, clients, lanes); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterMetrics derives the per-layer counters of the open phase from
// the processes' /metrics before and after it.
func counterMetrics(m map[string]metric, before, after []map[string]float64, openLen time.Duration) {
	delta := func(name string) float64 {
		var v float64
		for i := range after {
			v += after[i][name] - before[i][name]
		}
		return v
	}
	count := func(name string, v float64) { m[name] = metric{Value: v, Unit: "count"} }
	// Every remote job is one worker decode-request count, whichever
	// route carried it; batched ones are also in the batch histogram.
	remoteJobs := delta("pooled_worker_decode_requests_total")
	batches := delta("pooled_remote_batch_jobs_count")
	single := remoteJobs - delta("pooled_remote_batch_jobs_sum")
	count("remote.requests_single", single)
	count("remote.requests_batch", batches)
	perReq := 0.0
	if single+batches > 0 {
		perReq = remoteJobs / (single + batches)
	}
	m["remote.jobs_per_request"] = metric{Value: perReq, Unit: "ratio"}
	count("remote.retries", delta("pooled_remote_retries_total"))
	count("remote.saturated", delta("pooled_remote_saturated_total"))
	count("wal.appends", delta("pooled_wal_appends_total"))
	fsyncs, fsyncSec := delta("pooled_wal_fsync_seconds_count"), delta("pooled_wal_fsync_seconds_sum")
	count("wal.fsyncs", fsyncs)
	mean := 0.0
	if fsyncs > 0 {
		mean = fsyncSec / fsyncs * 1e3
	}
	m["wal.fsync_mean_ms"] = metric{Value: mean, Unit: "ms", N: int(fsyncs)}
	m["wal.fsync_share"] = metric{Value: fsyncSec / openLen.Seconds(), Unit: "ratio"}
}

// traceReplay runs the open phase's schedule twice in-process, traced and
// untraced, and adds the per-layer metrics to res.
func (b *bench) traceReplay(ctx context.Context, res *result, w workload, gen *jobGen, dir string, due []time.Duration, open *phase, unit time.Duration, clients, lanes int) error {
	tr := newTracer()
	traced, err := replay(ctx, w, gen, tr, filepath.Join(dir, "replay-traced"), due, 2*unit, clients, lanes)
	if err != nil {
		return err
	}
	plain, err := replay(ctx, w, gen, nil, filepath.Join(dir, "replay-plain"), due, 2*unit, clients, lanes)
	if err != nil {
		return err
	}
	for _, ph := range []*phase{traced, plain} {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		for _, e := range ph.errs {
			res.problem("replayed job failed: %s", e)
		}
		for idx, s := range ph.supports {
			if want, ok := open.supports[idx]; ok && !slices.Equal(s, want) {
				res.problem("job %d: replay support %v, pooledd %v", idx, s, want)
			}
		}
	}
	rep := tr.analyze(w)
	for k, v := range rep.metrics {
		res.Metrics[k] = v
	}
	res.Stages = rep.stages
	for _, p := range rep.problems {
		res.problem("%s", p)
	}
	// Whole-phase medians on both sides: the same schedule and jobs, over
	// HTTP and in-process, so the difference is what HTTP adds.
	m := res.Metrics
	plainP50 := plain.lat.p(50)
	m["http.self_p50_ms"] = metric{Value: open.lat.p(50) - plainP50, Unit: "ms"}
	overhead := 0.0
	if plainP50 > 0 {
		overhead = (m["job.p50_ms"].Value - plainP50) / plainP50 * 100
	}
	m["trace.overhead_pct"] = metric{Value: overhead, Unit: "%"}
	return writeSpans(filepath.Join(b.dir, fmt.Sprintf("spans-%s-%d.json", w.name, res.Seed)), res, rep)
}

// replay builds the in-process stack, warms it, and replays the open
// schedule on it.
func replay(ctx context.Context, w workload, gen *jobGen, tr *tracer, dir string, due []time.Duration, warm time.Duration, clients, lanes int) (*phase, error) {
	st, err := newStack(ctx, w, gen, tr, dir)
	if err != nil {
		return nil, err
	}
	defer st.close()
	runOpen(ctx, st, tasks(w, gen, phaseWarm), poisson(rng.DeriveSeed(gen.seed, phaseWarm), w.rate, warm), clients, lanes)
	p := runOpen(ctx, st, tasks(w, gen, phaseOpen), due, clients, lanes)
	st.close()
	return p, nil
}

// writeSpans writes the traced replay's span trees, one per job.
func writeSpans(path string, res *result, rep traceReport) error {
	data, err := json.Marshal(map[string]any{
		"workload": res.Workload, "seed": res.Seed,
		"stages": rep.stages, "worker_requests": rep.routes, "jobs": rep.jobs,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// checkSample decodes an evenly spaced sample of the open phase's jobs
// in-process, with the decoder the noise policy picks, on the same graph
// and counts, and reports every support that is not bit-identical.
func checkSample(gen *jobGen, open *phase, workers int) []string {
	idxs := make([]uint64, 0, len(open.supports))
	for idx := range open.supports {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	if len(idxs) > checkJobs {
		sample := make([]uint64, checkJobs)
		for i := range sample {
			sample[i] = idxs[i*len(idxs)/checkJobs]
		}
		idxs = sample
	}
	dec := noise.SelectDecoder(gen.noise.Canon(), noise.SchemeParams{N: benchN, M: benchM, K: benchK})
	var mu sync.Mutex
	var problems []string
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := wk; i < len(idxs); i += workers {
				idx := idxs[i]
				d := open.designs[idx]
				msg := ""
				est, err := dec.Decode(gen.graphs[d], gen.counts(d, idx, gen.signal(idx)), benchK)
				switch {
				case err != nil:
					msg = fmt.Sprintf("job %d: reference %s decode failed: %v", idx, dec.Name(), err)
				case !slices.Equal(est.Support(), open.supports[idx]):
					msg = fmt.Sprintf("job %d: support %v, reference %s gives %v", idx, open.supports[idx], dec.Name(), est.Support())
				default:
					continue
				}
				mu.Lock()
				problems = append(problems, msg)
				mu.Unlock()
			}
		}(wk)
	}
	wg.Wait()
	return problems
}
