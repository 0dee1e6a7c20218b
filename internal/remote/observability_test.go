package remote

import (
	"bytes"
	"context"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/rng"
	"pooleddata/metrics"
)

// syncBuffer is a concurrency-safe log sink for captured slog output.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// sampleValue finds a gathered sample by family name and label values.
func sampleValue(fams []metrics.Family, name string, values ...string) (float64, bool) {
	for _, fam := range fams {
		if fam.Name != name {
			continue
		}
		for _, s := range fam.Samples {
			if len(s.Values) != len(values) {
				continue
			}
			match := true
			for i := range values {
				if s.Values[i] != values[i] {
					match = false
					break
				}
			}
			if match {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// TestHealthTransitionsEmitMetricAndLog: flipping a worker down and back
// up produces exactly one transition counter increment per flip, moves
// the cluster's pooled_shard_healthy gauge, and logs each flip with the
// worker address — the observable trail of a probe-state change, not
// just failed jobs.
func TestHealthTransitionsEmitMetricAndLog(t *testing.T) {
	var broken atomic.Bool
	wc := engine.NewCluster(engine.ClusterConfig{
		Shards: 1, Shard: engine.Config{CacheCapacity: 4, Workers: 1},
	})
	t.Cleanup(wc.Close)
	inner := NewServer(wc, ServerOptions{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() {
			writeError(w, http.StatusServiceUnavailable, "down for maintenance")
			return
		}
		inner.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	reg := metrics.NewRegistry()
	logs := &syncBuffer{}
	sh := newShard(t, ts, func(o *Options) {
		o.ProbeInterval = 15 * time.Millisecond
		o.Retries = 1
		o.Metrics = reg
		o.Logger = slog.New(slog.NewTextHandler(logs, nil))
	})
	engine.RegisterClusterMetrics(reg, engine.NewClusterOf(sh))
	addr := ts.Listener.Addr().String()

	if v, ok := sampleValue(reg.Gather(), "pooled_shard_healthy", "0", addr); !ok || v != 1 {
		t.Fatalf("healthy gauge = %v (present %v), want 1", v, ok)
	}

	broken.Store(true)
	eventually(t, 5*time.Second, func() bool { return !sh.Healthy() }, "probe never marked the worker unhealthy")
	broken.Store(false)
	eventually(t, 5*time.Second, func() bool { return sh.Healthy() }, "probe never recovered the worker")

	fams := reg.Gather()
	down, _ := sampleValue(fams, "pooled_remote_worker_health_transitions_total", addr, "unhealthy")
	up, _ := sampleValue(fams, "pooled_remote_worker_health_transitions_total", addr, "healthy")
	if down < 1 || up < 1 {
		t.Fatalf("transition counters down=%v up=%v, want both >= 1", down, up)
	}
	if v, _ := sampleValue(fams, "pooled_shard_healthy", "0", addr); v != 1 {
		t.Fatalf("healthy gauge after recovery = %v, want 1", v)
	}
	out := logs.String()
	if !strings.Contains(out, "worker health transition") {
		t.Fatalf("no health-transition log emitted:\n%s", out)
	}
	if !strings.Contains(out, "to=unhealthy") || !strings.Contains(out, "to=healthy") {
		t.Fatalf("transition logs missing direction:\n%s", out)
	}
	if !strings.Contains(out, addr) {
		t.Fatalf("transition logs missing worker addr %s:\n%s", addr, out)
	}

	// Flips are edge-triggered: repeated healthy probes must not keep
	// incrementing the counter.
	time.Sleep(80 * time.Millisecond)
	again, _ := sampleValue(reg.Gather(), "pooled_remote_worker_health_transitions_total", addr, "healthy")
	if again != up {
		t.Fatalf("healthy transitions moved %v -> %v with no flip", up, again)
	}
}

// TestRemoteStageTimers: a successful decode against a live worker
// populates every request stage, with total >= each component stage and
// the components consistent with total within generous slack.
func TestRemoteStageTimers(t *testing.T) {
	wc := engine.NewCluster(engine.ClusterConfig{
		Shards: 1, Shard: engine.Config{CacheCapacity: 4, Workers: 1},
	})
	t.Cleanup(wc.Close)
	ts := httptest.NewServer(NewServer(wc, ServerOptions{}).Handler())
	t.Cleanup(ts.Close)

	reg := metrics.NewRegistry()
	sh := newShard(t, ts, func(o *Options) { o.Metrics = reg })
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, 200, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	y := cluster.MeasureBatch(s, []*bitvec.Vector{bitvec.Random(200, 4, rng.NewRandSeeded(3))}, noise.Model{})[0]
	const jobs = 8
	for i := 0; i < jobs; i++ {
		if _, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: 4}); err != nil {
			t.Fatal(err)
		}
	}

	addr := ts.Listener.Addr().String()
	sums := make(map[string]float64)
	counts := make(map[string]uint64)
	for _, fam := range reg.Gather() {
		if fam.Name != "pooled_remote_request_seconds" {
			continue
		}
		for _, smp := range fam.Samples {
			if smp.Values[0] == addr {
				sums[smp.Values[1]] = smp.Sum
				counts[smp.Values[1]] = smp.Count
			}
		}
	}
	stages := []string{"serialize", "network", "worker_queue", "worker_decode", "total"}
	for _, st := range stages {
		if counts[st] != jobs {
			t.Fatalf("stage %q observed %d times, want %d (stages: %v)", st, counts[st], jobs, counts)
		}
	}
	total := sums["total"]
	components := sums["serialize"] + sums["network"] + sums["worker_queue"] + sums["worker_decode"]
	if total <= 0 {
		t.Fatalf("total stage sum %v, want > 0", total)
	}
	// The components cover the round trip minus the worker's parse and
	// serialize overhead, so their sum must stay at or below total (plus
	// float slack) and account for a meaningful share of it.
	if components > total*1.05+0.005 {
		t.Fatalf("stage components %.6fs exceed total %.6fs", components, total)
	}
	if components < total*0.1 {
		t.Fatalf("stage components %.6fs unexpectedly tiny against total %.6fs", components, total)
	}
}
