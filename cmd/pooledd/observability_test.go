package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/remote"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

// logBuffer is a concurrency-safe sink for captured slog output.
type logBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (lb *logBuffer) Write(p []byte) (int, error) {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.Write(p)
}

func (lb *logBuffer) String() string {
	lb.mu.Lock()
	defer lb.mu.Unlock()
	return lb.b.String()
}

// scrape fetches a /metrics endpoint, asserts the content type, lints
// the exposition, and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	return string(body)
}

// postJSONTraced posts a JSON body with an X-Request-ID and returns the
// response (body decoded into out when non-nil and 2xx).
func postJSONTraced(t *testing.T, url, trace string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// famStageSums extracts the per-stage Sum/Count of a gathered remote
// request-seconds family.
func famStageSums(fams []metrics.Family) (sums map[string]float64, counts map[string]uint64) {
	sums, counts = make(map[string]float64), make(map[string]uint64)
	for _, fam := range fams {
		if fam.Name != "pooled_remote_request_seconds" {
			continue
		}
		for _, s := range fam.Samples {
			sums[s.Values[1]] += s.Sum
			counts[s.Values[1]] += s.Count
		}
	}
	return sums, counts
}

// TestObservabilityFederatedE2E is the acceptance path of the
// observability layer: a frontend over a remote worker runs a noisy
// campaign while both nodes serve valid Prometheus expositions covering
// engine stage timers, campaign gauges, and the remote transport; a
// caller-chosen request id is echoed in the Trace-ID response header,
// appears on every SSE result event, in the frontend's structured logs,
// and in the worker's — one grep correlates the job end to end — and
// the remote stage timers are consistent with the end-to-end latency.
func TestObservabilityFederatedE2E(t *testing.T) {
	const n, m, k, batch = 400, 240, 5, 12
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.0, Seed: 3}

	// Worker: local cluster + shard server + its own registry and logs,
	// with /metrics beside the shard API exactly like `pooledd -worker`.
	workerLogs := &logBuffer{}
	wreg := metrics.NewRegistry()
	wCluster := engine.NewCluster(engine.ClusterConfig{
		Shards: 1,
		Shard:  engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})
	t.Cleanup(wCluster.Close)
	engine.RegisterClusterMetrics(wreg, wCluster)
	ws := remote.NewServer(wCluster, remote.ServerOptions{
		Logger:  slog.New(slog.NewTextHandler(workerLogs, nil)),
		Metrics: wreg,
	})
	wmux := http.NewServeMux()
	wmux.Handle("GET /metrics", wreg.Handler())
	wmux.Handle("/", ws.Handler())
	worker := httptest.NewServer(wmux)
	t.Cleanup(worker.Close)

	// Frontend: one remote shard over the worker, instrumented server.
	frontLogs := &logBuffer{}
	freg := metrics.NewRegistry()
	flog := slog.New(slog.NewTextHandler(frontLogs, nil))
	// Batch coalescing stays at its default: the per-job stage accounting
	// (serialize share, residual network, worker-reported queue/decode)
	// must hold on the coalesced binary path too — one observation per
	// stage per job, components consistent with the end-to-end total.
	sh := remote.New(remote.Options{
		Addr:          worker.Listener.Addr().String(),
		ProbeInterval: 25 * time.Millisecond,
		Metrics:       freg,
		Logger:        flog,
	})
	t.Cleanup(sh.Close)
	fCluster := engine.NewClusterOf(sh)
	// Tracing on with a full baseline rate, so every job's span tree is
	// retrievable below.
	traces := trace.NewStore(trace.Config{SampleRate: 1})
	srv := newServer(fCluster, campaign.Config{Traces: traces})
	t.Cleanup(srv.campaigns.Close)
	srv.traces = traces
	srv.instrument(freg, flog)
	front := httptest.NewServer(srv.handler())
	t.Cleanup(front.Close)

	var sch schemeEntry
	if resp := postJSON(t, front.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: 7}, &sch); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create scheme: status %d", resp.StatusCode)
	}

	// A single traced decode: the trace id round-trips through the
	// worker and back into the response body and header.
	const decodeTrace = "trace-decode-42"
	ys := noisyBatch(t, n, m, k, batch, 7, nm)
	var dr decodeResponse
	resp := postJSONTraced(t, front.URL+"/v1/decode", decodeTrace,
		decodeRequest{Scheme: sch.ID, K: k, Noise: &nm, Counts: ys[0]}, &dr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Trace-ID"); got != decodeTrace {
		t.Fatalf("decode Trace-ID header = %q, want %q", got, decodeTrace)
	}
	if dr.TraceID != decodeTrace {
		t.Fatalf("decode response trace_id = %q, want %q", dr.TraceID, decodeTrace)
	}

	// A traced campaign: the id must reach every SSE result event.
	const campTrace = "trace-campaign-e2e"
	var created campaignCreated
	resp = postJSONTraced(t, front.URL+"/v1/campaigns", campTrace,
		campaignRequest{Scheme: sch.ID, K: k, Batch: ys, Noise: &nm}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Trace-ID"); got != campTrace {
		t.Fatalf("campaign Trace-ID header = %q, want %q", got, campTrace)
	}

	stream := streamEvents(t, front.URL, created.ID, 0)
	defer stream.Body.Close()
	evs, _ := readSSE(t, stream.Body, batch+1)
	var results int
	for _, ev := range evs {
		if ev.event != "result" {
			continue
		}
		results++
		var jr campaign.JobResult
		if err := json.Unmarshal([]byte(ev.data), &jr); err != nil {
			t.Fatalf("bad result payload %q: %v", ev.data, err)
		}
		if want := fmt.Sprintf("%s-%d", campTrace, jr.Index); jr.TraceID != want {
			t.Fatalf("SSE result %d trace_id = %q, want per-job id %q", jr.Index, jr.TraceID, want)
		}
	}
	if results != batch {
		t.Fatalf("streamed %d results, want %d", results, batch)
	}

	// The trace id appears in the logs on both sides of the hop.
	for name, logs := range map[string]*logBuffer{"frontend": frontLogs, "worker": workerLogs} {
		out := logs.String()
		if !strings.Contains(out, decodeTrace) {
			t.Fatalf("%s logs missing decode trace %q:\n%s", name, decodeTrace, out)
		}
	}
	if out := workerLogs.String(); !strings.Contains(out, campTrace) {
		t.Fatalf("worker logs missing campaign trace %q:\n%s", campTrace, out)
	}
	if out := frontLogs.String(); !strings.Contains(out, campTrace) {
		t.Fatalf("frontend logs missing campaign trace %q:\n%s", campTrace, out)
	}

	// Both expositions are valid and cover their layer's families.
	frontExpo := scrape(t, front.URL)
	for _, want := range []string{
		"pooled_remote_request_seconds_bucket",
		"pooled_engine_decode_seconds_bucket",
		"pooled_engine_noise_decode_seconds_bucket",
		"pooled_engine_jobs_total",
		"pooled_campaigns{state=\"active\"}",
		"pooled_campaign_dispatched_total",
		"pooled_sse_streams_total",
		"pooled_registered_schemes",
		"pooled_shard_healthy",
	} {
		if !strings.Contains(frontExpo, want) {
			t.Errorf("frontend exposition missing %q", want)
		}
	}
	workerExpo := scrape(t, worker.URL)
	for _, want := range []string{
		"pooled_worker_decode_requests_total{status=\"200\"}",
		"pooled_worker_installed_schemes",
		"pooled_worker_scheme_installs_total",
		"pooled_engine_queue_wait_seconds_bucket",
		"pooled_engine_decode_seconds_bucket",
	} {
		if !strings.Contains(workerExpo, want) {
			t.Errorf("worker exposition missing %q", want)
		}
	}

	// Stage timers vs. end-to-end latency: the per-stage sums
	// (serialize + network + worker_queue + worker_decode) must account
	// for the total without exceeding it — the worker's parse/serialize
	// overhead is the only part of the round trip not attributed to a
	// stage. Loose tolerance: timers, not a benchmark.
	sums, counts := famStageSums(freg.Gather())
	wantObs := uint64(batch + 1)
	for _, st := range []string{"serialize", "network", "worker_queue", "worker_decode", "total"} {
		if counts[st] != wantObs {
			t.Errorf("stage %q observed %d times, want %d", st, counts[st], wantObs)
		}
	}
	total := sums["total"]
	components := sums["serialize"] + sums["network"] + sums["worker_queue"] + sums["worker_decode"]
	if total <= 0 {
		t.Fatal("total stage sum is zero")
	}
	if components > total*1.05+0.005 {
		t.Errorf("stage sums %.6fs exceed end-to-end total %.6fs", components, total)
	}
	if components < total*0.1 {
		t.Errorf("stage sums %.6fs unexpectedly tiny against end-to-end total %.6fs", components, total)
	}

	// Span-level tracing: the sync decode's span tree is retrievable by
	// its ingress id and covers the whole path — ingress → shard queue →
	// wire (serialize/network children) → worker queue/decode synthesized
	// inside the request window on the worker tier.
	var tr trace.Trace
	if resp := getJSON(t, front.URL+"/v1/traces/"+decodeTrace, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("get decode trace: status %d", resp.StatusCode)
	}
	spans := make(map[string]trace.Span, len(tr.Spans))
	for _, sp := range tr.Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{"decode_request", "ingress", "shard_queue", "wire", "serialize", "network", "worker_queue", "worker_decode"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("decode trace missing span %q, got %+v", want, tr.Spans)
		}
	}
	for name, tier := range map[string]string{
		"ingress": trace.TierFrontend, "shard_queue": trace.TierFrontend,
		"worker_queue": trace.TierWorker, "worker_decode": trace.TierWorker,
	} {
		if spans[name].Tier != tier {
			t.Errorf("span %q tier = %q, want %q", name, spans[name].Tier, tier)
		}
	}
	root := spans["decode_request"]
	for _, child := range []string{"serialize", "network", "worker_queue", "worker_decode"} {
		if spans[child].Parent != spans["wire"].ID {
			t.Errorf("span %q parent = %d, want wire (%d)", child, spans[child].Parent, spans["wire"].ID)
		}
	}
	if spans["wire"].Parent != root.ID {
		t.Errorf("wire span parent = %d, want root (%d)", spans["wire"].Parent, root.ID)
	}
	// Stage durations must be consistent with the trace's end-to-end
	// latency: the sequential stages sum to at most the root (plus
	// timer jitter slack), and the wire span bounds its children.
	seq := spans["ingress"].DurNS + spans["shard_queue"].DurNS + spans["wire"].DurNS
	if limit := tr.DurNS + tr.DurNS/10 + (10 * time.Millisecond).Nanoseconds(); seq > limit {
		t.Errorf("sequential span sum %dns exceeds trace duration %dns", seq, tr.DurNS)
	}
	wireKids := spans["serialize"].DurNS + spans["network"].DurNS + spans["worker_queue"].DurNS + spans["worker_decode"].DurNS
	if limit := spans["wire"].DurNS + spans["wire"].DurNS/10 + (10 * time.Millisecond).Nanoseconds(); wireKids > limit {
		t.Errorf("wire children sum %dns exceeds wire span %dns", wireKids, spans["wire"].DurNS)
	}

	// A campaign job's trace carries the campaign-side spans and both
	// tiers. Fetch with a short retry: the trace seals moments after the
	// SSE result event that proved the job settled.
	jobTraceID := campTrace + "-0"
	var jobTr trace.Trace
	deadline := time.Now().Add(5 * time.Second)
	for {
		if resp := getJSON(t, front.URL+"/v1/traces/"+jobTraceID, &jobTr); resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign job trace %q never retained", jobTraceID)
		}
		time.Sleep(20 * time.Millisecond)
	}
	jobSpans := make(map[string]bool, len(jobTr.Spans))
	tiers := make(map[string]bool)
	for _, sp := range jobTr.Spans {
		jobSpans[sp.Name] = true
		tiers[sp.Tier] = true
	}
	for _, want := range []string{"campaign_job", "admission", "tenant_queue", "wire", "worker_decode"} {
		if !jobSpans[want] {
			t.Errorf("campaign job trace missing span %q, got %+v", want, jobTr.Spans)
		}
	}
	if !tiers[trace.TierFrontend] || !tiers[trace.TierWorker] {
		t.Errorf("campaign job trace does not span both tiers: %+v", jobTr.Spans)
	}
	if jobTr.Tenant != campaign.DefaultTenant {
		t.Errorf("campaign job trace tenant = %q, want %q", jobTr.Tenant, campaign.DefaultTenant)
	}

	// Hot-key accounting: the campaign's scheme shows in the /v1/stats
	// top-K load table, owned by the worker. The remote client records
	// each row from the job's result frame before the job settles, so
	// the table is current once the stream above has ended; the retry
	// is slack.
	workerAddr := worker.Listener.Addr().String()
	deadline = time.Now().Add(10 * time.Second)
	for {
		var stats struct {
			SchemeLoad []schemeLoadRow `json:"scheme_load"`
		}
		getJSON(t, front.URL+"/v1/stats", &stats)
		found := false
		for _, row := range stats.SchemeLoad {
			if row.Jobs >= uint64(batch+1) && row.Owner == workerAddr && row.DecodeNS > 0 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheme load table never showed the campaign's scheme owned by %s: %+v", workerAddr, stats.SchemeLoad)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFederatedBuildCounters: a -workers frontend builds every
// parametric design in its remote client's scheme cache, and those
// builds reach /v1/stats and /metrics like a local shard's. Two
// registered specs read two builds on both.
func TestFederatedBuildCounters(t *testing.T) {
	_, w := startWorker(t)
	fed, srv, _ := startElasticFrontend(t, w)
	reg := metrics.NewRegistry()
	srv.instrument(reg, nil)

	for seed := uint64(1); seed <= 2; seed++ {
		if resp := postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: 200, M: 100, Seed: seed}, nil); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register seed %d: status %d", seed, resp.StatusCode)
		}
	}
	var st struct {
		SchemesBuilt uint64 `json:"schemes_built"`
	}
	getJSON(t, fed.URL+"/v1/stats", &st)
	if st.SchemesBuilt != 2 {
		t.Fatalf("/v1/stats schemes_built = %d, want 2", st.SchemesBuilt)
	}
	for _, fam := range reg.Gather() {
		if fam.Name == "pooled_engine_schemes_built_total" {
			if got := fam.Samples[0].Value; got != 2 {
				t.Fatalf("pooled_engine_schemes_built_total = %v, want 2", got)
			}
			return
		}
	}
	t.Fatal("pooled_engine_schemes_built_total not exported")
}

// TestMetricsAndStatsBoundedUnderTenantFlood hammers the server with
// thousands of distinct tenant names and asserts neither /v1/stats nor
// /metrics grows without bound: campaign retention prunes tenant
// accounting, and the exposition's per-family series cap collapses the
// rest into the overflow tuple.
func TestMetricsAndStatsBoundedUnderTenantFlood(t *testing.T) {
	tenants := 10000
	if testing.Short() {
		tenants = 1000
	}
	cluster := engine.NewCluster(engine.ClusterConfig{
		Shards: 1,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 2, QueueDepth: 256},
	})
	t.Cleanup(cluster.Close)
	srv := newServer(cluster, campaign.Config{
		Retention:   50 * time.Millisecond,
		MaxFinished: 16,
	})
	t.Cleanup(srv.campaigns.Close)
	reg := metrics.NewRegistry()
	srv.instrument(reg, nil)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var sch schemeEntry
	if resp := postJSON(t, ts.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: 64, M: 32, Seed: 1}, &sch); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create scheme: status %d", resp.StatusCode)
	}
	ent, _ := srv.lookup(sch.ID)
	y := make([]int64, 32) // zero counts decode instantly at k=0

	// Flood through the store directly (the HTTP layer adds nothing to
	// label-set growth), scraping /metrics concurrently so the scrape
	// races real churn rather than a quiet registry.
	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				scrape(t, ts.URL)
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	for i := 0; i < tenants; i++ {
		// The store's global active-campaign cap pushes back when creates
		// outrun the decode pipeline — GC and retry until admitted, which
		// is exactly what a flooding client would be told to do (429).
		deadline := time.Now().Add(time.Minute)
		for {
			_, err := srv.campaigns.Create(campaign.Request{
				Scheme: ent.scheme, Batch: [][]int64{y}, K: 0,
				Tenant: fmt.Sprintf("tenant-%d", i),
			})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %d never admitted: %v", i, err)
			}
			srv.campaigns.GC(time.Now())
			time.Sleep(time.Millisecond)
		}
	}
	// Drain: every job settles, then GC past the retention window.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := cluster.Stats().Total
		if st.JobsCompleted+st.JobsFailed+st.JobsCanceled >= uint64(tenants) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood never drained: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	scrapeWG.Wait()
	time.Sleep(60 * time.Millisecond)
	srv.campaigns.GC(time.Now())

	// /metrics: every family stays under the series cap (plus overflow).
	for _, fam := range reg.Gather() {
		if len(fam.Samples) > metrics.DefaultMaxSeries+1 {
			t.Errorf("family %s grew to %d series despite the bound", fam.Name, len(fam.Samples))
		}
	}
	expo := scrape(t, ts.URL)
	if nLines := strings.Count(expo, "\n"); nLines > 20000 {
		t.Errorf("exposition is %d lines — label sets not bounded", nLines)
	}

	// /v1/stats: tenant map pruned down to retention, not 10k entries.
	var stats struct {
		Tenants map[string]json.RawMessage `json:"tenants"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	// The per-tenant latency set keeps at most 64 keys plus the "other"
	// overflow key, and that set is what keeps tenants visible after GC.
	if len(stats.Tenants) > 65 {
		t.Errorf("/v1/stats retains %d tenants after GC, want <= 65", len(stats.Tenants))
	}
	if _, ok := stats.Tenants["other"]; !ok {
		t.Error("/v1/stats tenant map missing the overflow key after a 10k-tenant flood")
	}
}

// TestTraceGeneratedWhenAbsent: requests without a caller id still get
// a trace — generated at ingress, echoed in the header.
func TestTraceGeneratedWhenAbsent(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	trace := resp.Header.Get("Trace-ID")
	if len(trace) != 16 {
		t.Fatalf("generated Trace-ID %q, want 16 hex chars", trace)
	}
}
