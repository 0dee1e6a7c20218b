package main

import (
	"io"
	"math"
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

// recordFrontend boots a frontend wired as main wires it — the metrics
// registry and a keep-everything trace store attached before the
// handler is built — over the given worker, or over one local shard
// when worker is nil.
func recordFrontend(t *testing.T, worker *httptest.Server) (*httptest.Server, *metrics.Registry, *trace.Store) {
	t.Helper()
	reg := metrics.NewRegistry()
	var cluster *engine.Cluster
	var opts *remote.Options
	if worker != nil {
		opts = &remote.Options{ProbeInterval: 20 * time.Millisecond, RetryBackoff: 5 * time.Millisecond, Retries: 1, Metrics: reg}
		cluster = engine.NewClusterOf(dialWorker(*opts, worker.Listener.Addr().String()))
	} else {
		cluster = engine.NewCluster(engine.ClusterConfig{Shards: 1, Shard: engine.Config{CacheCapacity: 4, Workers: 2}})
	}
	t.Cleanup(cluster.Close)
	traces := trace.NewStore(trace.Config{SampleRate: 1})
	srv := newServer(cluster, campaign.Config{Traces: traces})
	t.Cleanup(srv.campaigns.Close)
	srv.traces = traces
	srv.workerOpts = opts
	srv.instrument(reg, nil)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, reg, traces
}

// recordStats is the part of /v1/stats these tests read.
type recordStats struct {
	JobsCompleted uint64                             `json:"jobs_completed"`
	JobsFailed    uint64                             `json:"jobs_failed"`
	DecodeLatency map[string]engine.LatencyHistogram `json:"decode_latency"`
	QueueLatency  map[string]engine.LatencyHistogram `json:"queue_latency"`
}

func registerSpec(t *testing.T, url string, n, m int, seed uint64) schemeEntry {
	t.Helper()
	var sch schemeEntry
	if resp := postJSON(t, url+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register scheme: status %d", resp.StatusCode)
	}
	return sch
}

// TestStatsAreTheResults: /v1/stats read straight after five decodes,
// with no polling, counts all five, and its mn decode and queue
// histograms total exactly the decode_ns and queue_ns the responses
// carried — on a -workers frontend, whose client records each job from
// its result frame, and on a local one.
func TestStatsAreTheResults(t *testing.T) {
	const n, m, k = 300, 150, 4
	for _, federated := range []bool{true, false} {
		name := "local"
		if federated {
			name = "federated"
		}
		t.Run(name, func(t *testing.T) {
			var worker *httptest.Server
			if federated {
				_, worker = startWorker(t)
			}
			front, _, _ := recordFrontend(t, worker)
			sch := registerSpec(t, front.URL, n, m, 3)
			ys := noisyBatch(t, n, m, k, 5, 3, noise.Model{})

			var before, after recordStats
			getJSON(t, front.URL+"/v1/stats", &before)
			var queueNS, decodeNS int64
			for _, y := range ys {
				var dr decodeResponse
				if resp := postJSON(t, front.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Counts: y}, &dr); resp.StatusCode != http.StatusOK {
					t.Fatalf("decode: status %d", resp.StatusCode)
				}
				queueNS += dr.QueueNS
				decodeNS += dr.DecodeNS
			}
			getJSON(t, front.URL+"/v1/stats", &after)

			if got := after.JobsCompleted - before.JobsCompleted; got != 5 {
				t.Errorf("jobs_completed rose by %d over five decodes, want 5", got)
			}
			if got := after.DecodeLatency["mn"].TotalNS - before.DecodeLatency["mn"].TotalNS; got != decodeNS {
				t.Errorf("decode_latency[mn].total_ns rose by %d, want the responses' decode_ns sum %d", got, decodeNS)
			}
			if got := after.QueueLatency["mn"].TotalNS - before.QueueLatency["mn"].TotalNS; got != queueNS {
				t.Errorf("queue_latency[mn].total_ns rose by %d, want the responses' queue_ns sum %d", got, queueNS)
			}
		})
	}
}

// TestWorkerDecodeFailureCountsOnce: a decode the worker fails (an
// exhaustive search over counts no weight-2 signal explains) answers 422
// and counts once in the frontend's jobs_failed. Its result frame
// carries no timing, so it stays out of decode_latency.
func TestWorkerDecodeFailureCountsOnce(t *testing.T) {
	_, worker := startWorker(t)
	front, _, _ := recordFrontend(t, worker)
	sch := registerSpec(t, front.URL, 40, 20, 1)
	counts := make([]int64, 20)
	for i := range counts {
		counts[i] = 1000
	}
	if resp := postJSON(t, front.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: 2, Decoder: "exhaustive", Counts: counts}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("decode: status %d, want 422", resp.StatusCode)
	}
	var st recordStats
	getJSON(t, front.URL+"/v1/stats", &st)
	if st.JobsFailed != 1 || st.JobsCompleted != 0 {
		t.Fatalf("jobs_failed=%d jobs_completed=%d, want 1 and 0", st.JobsFailed, st.JobsCompleted)
	}
	if h, ok := st.DecodeLatency["exhaustive"]; ok {
		t.Fatalf("the failed decode entered decode_latency: %+v", h)
	}
}

// TestNoSecondStatsChannel: serving GET /v1/stats, GET /v1/workers and a
// /metrics scrape sends the worker no request for its counters, and the
// worker has no stats route to ask.
func TestNoSecondStatsChannel(t *testing.T) {
	wc := engine.NewCluster(engine.ClusterConfig{Shards: 1, Shard: engine.Config{Workers: 1}})
	t.Cleanup(wc.Close)
	inner := remote.NewServer(wc, remote.ServerOptions{}).Handler()
	var mu sync.Mutex
	paths := make(map[string]int)
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths[r.URL.Path]++
		mu.Unlock()
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(worker.Close)
	front, _, _ := recordFrontend(t, worker)
	sch := registerSpec(t, front.URL, 200, 100, 1)
	if resp := postJSON(t, front.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: 0, Counts: make([]int64, 100)}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: status %d", resp.StatusCode)
	}

	var st recordStats
	getJSON(t, front.URL+"/v1/stats", &st)
	getJSON(t, front.URL+"/v1/workers", nil)
	scrape(t, front.URL)
	if st.JobsCompleted != 1 {
		t.Fatalf("jobs_completed = %d, want 1", st.JobsCompleted)
	}
	mu.Lock()
	asked := paths["/shard/v1/stats"]
	mu.Unlock()
	if asked != 0 {
		t.Fatalf("the frontend asked the worker for /shard/v1/stats %d times", asked)
	}

	resp, err := http.Get(worker.URL + "/shard/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "unknown route") {
		t.Fatalf("GET /shard/v1/stats: status %d, body %s; want 404 unknown route", resp.StatusCode, body)
	}
}

// spanDurs maps a trace's span names to their durations.
func spanDurs(tr *trace.Trace) map[string]int64 {
	out := make(map[string]int64, len(tr.Spans))
	for _, sp := range tr.Spans {
		out[sp.Name] = sp.DurNS
	}
	return out
}

// TestStageHistogramsMatchSpans: for one traced federated job, each
// wire stage's pooled_remote_request_seconds sum is its span's duration
// and "total" is the wire span's; for one traced local job, the
// queue_latency and decode_latency totals are the shard_queue and
// decode spans, to the nanosecond.
func TestStageHistogramsMatchSpans(t *testing.T) {
	const n, m, k = 300, 150, 4
	y := noisyBatch(t, n, m, k, 1, 5, noise.Model{})[0]

	t.Run("federated", func(t *testing.T) {
		_, worker := startWorker(t)
		front, reg, traces := recordFrontend(t, worker)
		sch := registerSpec(t, front.URL, n, m, 5)
		if resp := postJSONTraced(t, front.URL+"/v1/decode", "wire-stages", decodeRequest{Scheme: sch.ID, K: k, Counts: y}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("decode: status %d", resp.StatusCode)
		}
		tr, ok := traces.Get("wire-stages")
		if !ok {
			t.Fatal("decode trace not retained")
		}
		spans := spanDurs(tr)
		sums, counts := famStageSums(reg.Gather())
		for stage, span := range map[string]string{
			"serialize": "serialize", "network": "network",
			"worker_queue": "worker_queue", "worker_decode": "worker_decode",
			"total": "wire",
		} {
			if counts[stage] != 1 {
				t.Fatalf("stage %q observed %d times, want 1", stage, counts[stage])
			}
			if d := math.Abs(sums[stage]*1e9 - float64(spans[span])); d > 1 {
				t.Errorf("stage %q sums %.0fns, span %q lasts %dns", stage, sums[stage]*1e9, span, spans[span])
			}
		}
	})

	t.Run("local", func(t *testing.T) {
		front, _, traces := recordFrontend(t, nil)
		sch := registerSpec(t, front.URL, n, m, 5)
		if resp := postJSONTraced(t, front.URL+"/v1/decode", "local-stages", decodeRequest{Scheme: sch.ID, K: k, Counts: y}, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("decode: status %d", resp.StatusCode)
		}
		tr, ok := traces.Get("local-stages")
		if !ok {
			t.Fatal("decode trace not retained")
		}
		spans := spanDurs(tr)
		var st recordStats
		getJSON(t, front.URL+"/v1/stats", &st)
		if got, want := st.QueueLatency["mn"].TotalNS, spans["shard_queue"]; got != want {
			t.Errorf("queue_latency[mn].total_ns = %d, shard_queue span = %dns", got, want)
		}
		if got, want := st.DecodeLatency["mn"].TotalNS, spans["decode"]; got != want {
			t.Errorf("decode_latency[mn].total_ns = %d, decode span = %dns", got, want)
		}
	})
}
