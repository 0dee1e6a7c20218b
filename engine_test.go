package pooled

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"pooleddata/internal/engine"
	"pooleddata/internal/remote"
	"pooleddata/internal/rng"
	"pooleddata/metrics"
)

func TestEngineDecodeAndStats(t *testing.T) {
	eng := NewEngine(EngineOptions{CacheCapacity: 4, Workers: 2})
	defer eng.Close()

	n, k, m := 500, 7, 380
	scheme, err := eng.Scheme(n, m, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Pointer-identical on a public cache hit.
	again, err := eng.Scheme(n, m, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if again != scheme {
		t.Fatal("public cache hit returned a different *Scheme")
	}

	const batch = 5
	signals := make([][]bool, batch)
	r := rng.NewRandSeeded(31)
	for b := range signals {
		sig := make([]bool, n)
		for _, i := range r.SampleK(n, k) {
			sig[i] = true
		}
		signals[b] = sig
	}
	ys := eng.MeasureBatch(scheme, signals)
	for b := range signals {
		want := scheme.Measure(signals[b])
		for j := range want {
			if ys[b][j] != want[j] {
				t.Fatalf("engine MeasureBatch diverged from Measure at signal %d query %d", b, j)
			}
		}
	}

	results, err := eng.DecodeBatch(context.Background(), scheme, ys, k, MN)
	if err != nil {
		t.Fatal(err)
	}
	for b, res := range results {
		want, err := scheme.Reconstruct(ys[b], k)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(res.Support, want) {
			t.Fatalf("batched decode %d differs from Reconstruct", b)
		}
		if !res.Consistent || res.Residual != 0 {
			t.Fatalf("decode %d: residual=%d consistent=%v", b, res.Residual, res.Consistent)
		}
	}

	st := eng.Stats()
	if st.SchemesBuilt != 1 || st.CacheHits != 1 {
		t.Fatalf("cache stats = %+v, want 1 build and 1 hit", st)
	}
	if st.JobsCompleted != batch || st.Consistent != batch {
		t.Fatalf("pipeline stats = %+v, want %d completed consistent jobs", st, batch)
	}
	if st.SignalsMeasured != batch {
		t.Fatalf("signals measured = %d, want %d", st.SignalsMeasured, batch)
	}

	// Decoding through the engine also works for schemes built without it.
	adhoc, err := New(200, 150, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sig := make([]bool, 200)
	for _, i := range rng.NewRandSeeded(6).SampleK(200, 4) {
		sig[i] = true
	}
	y := adhoc.Measure(sig)
	res, err := eng.Decode(context.Background(), adhoc, y, 4, MN)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := adhoc.Reconstruct(y, 4)
	if !equalInts(res.Support, want) {
		t.Fatal("engine decode of ad-hoc scheme differs from Reconstruct")
	}
}

func TestShardedEngineFacade(t *testing.T) {
	eng := NewEngine(EngineOptions{Shards: 3, CacheCapacity: 2, Workers: 1})
	defer eng.Close()

	n, k, m := 300, 5, 240
	// Distinct seeds land on (generally) distinct shards; every scheme
	// keeps pointer identity on repeat requests regardless of placement.
	schemes := make(map[uint64]*Scheme)
	for seed := uint64(1); seed <= 4; seed++ {
		s, err := eng.Scheme(n, m, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		schemes[seed] = s
	}
	for seed, s := range schemes {
		again, err := eng.Scheme(n, m, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if again != s {
			t.Fatalf("seed %d: sharded cache hit returned a different *Scheme", seed)
		}
	}

	// Decodes route to the owning shard and still recover the signal.
	sig := make([]bool, n)
	for _, i := range rng.NewRandSeeded(77).SampleK(n, k) {
		sig[i] = true
	}
	y := schemes[1].Measure(sig)
	res, err := eng.Decode(context.Background(), schemes[1], y, k, MN)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		t.Fatalf("sharded decode inconsistent: %+v", res)
	}

	st := eng.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("got %d shard breakdowns, want 3", len(st.Shards))
	}
	var built, completed uint64
	for _, sh := range st.Shards {
		built += sh.SchemesBuilt
		completed += sh.JobsCompleted
	}
	if built != st.SchemesBuilt || built != 4 {
		t.Fatalf("shard builds sum %d, aggregate %d, want 4", built, st.SchemesBuilt)
	}
	if completed != st.JobsCompleted || completed != 1 {
		t.Fatalf("shard completions sum %d, aggregate %d, want 1", completed, st.JobsCompleted)
	}
	h, ok := st.DecodeLatency["mn"]
	if !ok || h.Count != 1 {
		t.Fatalf("facade latency histogram = %+v (ok=%v), want one mn observation", h, ok)
	}
	if len(h.Counts) != len(h.BucketUpper)+1 {
		t.Fatalf("histogram shape: %d counts for %d edges", len(h.Counts), len(h.BucketUpper))
	}
}

func TestNoisyFacade(t *testing.T) {
	eng := NewEngine(EngineOptions{Workers: 2})
	defer eng.Close()

	n, k, m := 400, 6, 320
	scheme, err := eng.Scheme(n, m, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 3
	signals := make([][]bool, batch)
	r := rng.NewRandSeeded(17)
	for b := range signals {
		sig := make([]bool, n)
		for _, i := range r.SampleK(n, k) {
			sig[i] = true
		}
		signals[b] = sig
	}
	nm := NoiseModel{Kind: "gaussian", Sigma: 0.5, Seed: 12}

	// Engine path and direct Scheme path perturb identically for equal
	// models (shared per-signal streams).
	ys, err := eng.MeasureBatchNoisy(scheme, signals, nm)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scheme.MeasureBatchNoisy(signals, nm)
	if err != nil {
		t.Fatal(err)
	}
	noisy := false
	for b := range ys {
		exact := scheme.Measure(signals[b])
		for j := range ys[b] {
			if ys[b][j] != direct[b][j] {
				t.Fatalf("engine and scheme noisy paths diverged at (%d,%d)", b, j)
			}
			if ys[b][j] != exact[j] {
				noisy = true
			}
		}
	}
	if !noisy {
		t.Fatal("gaussian model changed nothing")
	}

	// DecodeNoisy selects the robust decoder server-side and recovers.
	res, err := eng.DecodeNoisy(context.Background(), scheme, ys[0], k, nm)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decoder != "mn-refined" {
		t.Fatalf("policy selected %q", res.Decoder)
	}
	want, err := scheme.Reconstruct(scheme.Measure(signals[0]), k)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(res.Support, want) {
		t.Fatalf("noisy decode support %v, want %v", res.Support, want)
	}
	if !res.Consistent {
		t.Fatalf("recovery not consistent within slack: %+v", res)
	}

	// Batch form, and per-model counters on the public stats.
	results, err := eng.DecodeBatchNoisy(context.Background(), scheme, ys, k, nm)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != batch {
		t.Fatalf("got %d results", len(results))
	}
	st := eng.Stats()
	if got := st.JobsByNoise["gaussian(sigma=0.5)"]; got != 1+batch {
		t.Fatalf("JobsByNoise = %v, want %d gaussian jobs", st.JobsByNoise, 1+batch)
	}

	// Invalid models are rejected at the facade.
	if _, err := eng.MeasureBatchNoisy(scheme, signals, NoiseModel{Kind: "poisson"}); err == nil {
		t.Fatal("invalid model accepted by MeasureBatchNoisy")
	}
	if _, err := eng.DecodeNoisy(context.Background(), scheme, ys[0], k, NoiseModel{Kind: "poisson"}); err == nil {
		t.Fatal("invalid model accepted by DecodeNoisy")
	}
}

// TestEngineRemoteWorkers: a federated Engine decodes the schemes built
// outside it on its worker. A New scheme and a LoadDesignCSV scheme each
// decode twice, their supports equal Reconstruct, and the worker
// installs each design once: a wrapped scheme is known by its GraphKey.
func TestEngineRemoteWorkers(t *testing.T) {
	wc := engine.NewCluster(engine.ClusterConfig{Shards: 1, Shard: engine.Config{Workers: 2}})
	defer wc.Close()
	reg := metrics.NewRegistry()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	w := httptest.NewServer(remote.NewServer(wc, remote.ServerOptions{Metrics: reg, Logger: quiet}).Handler())
	defer w.Close()
	eng := NewEngine(EngineOptions{RemoteWorkers: []string{w.Listener.Addr().String()}})
	defer eng.Close()

	n, k, m := 300, 5, 200
	made, err := New(n, m, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(n, m, Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := other.WriteDesignCSV(&csv); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesignCSV(&csv)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []*Scheme{made, loaded} {
		for d := 0; d < 2; d++ {
			y := s.Measure(makeSignal(n, k, uint64(40+2*i+d)))
			res, err := eng.Decode(context.Background(), s, y, k, MN)
			if err != nil {
				t.Fatalf("scheme %d, decode %d: %v", i, d, err)
			}
			want, err := s.Reconstruct(y, k)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(res.Support, want) {
				t.Fatalf("scheme %d, decode %d: remote support %v, Reconstruct %v", i, d, res.Support, want)
			}
		}
	}
	var installs float64
	for _, fam := range reg.Gather() {
		if fam.Name == "pooled_worker_scheme_installs_total" {
			installs = fam.Samples[0].Value
		}
	}
	if installs != 2 {
		t.Fatalf("worker counted %v installs for two designs decoded twice each, want 2", installs)
	}
	if st := wc.Stats().Total; st.JobsCompleted != 4 {
		t.Fatalf("worker completed %d jobs, want 4", st.JobsCompleted)
	}
}

// TestDuplicateRemoteWorkerKeepsHealthSeries: a refused duplicate
// AddRemoteWorker of a live member's address builds no second client,
// and must leave every health series of that address at 1.
func TestDuplicateRemoteWorkerKeepsHealthSeries(t *testing.T) {
	wc := engine.NewCluster(engine.ClusterConfig{Shards: 1, Shard: engine.Config{Workers: 1}})
	defer wc.Close()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	w := httptest.NewServer(remote.NewServer(wc, remote.ServerOptions{Logger: quiet}).Handler())
	defer w.Close()
	addr := w.Listener.Addr().String()
	reg := metrics.NewRegistry()
	eng := NewEngine(EngineOptions{RemoteWorkers: []string{addr}, MetricsRegistry: reg})
	defer eng.Close()

	if err := eng.AddRemoteWorker(addr); err == nil {
		t.Fatal("duplicate AddRemoteWorker accepted")
	}
	seen := 0
	for _, fam := range reg.Gather() {
		if !strings.HasSuffix(fam.Name, "_healthy") {
			continue
		}
		for _, s := range fam.Samples {
			if !slices.Contains(s.Values, addr) {
				continue
			}
			seen++
			if s.Value != 1 {
				t.Errorf("%s%v = %v after a refused duplicate join, want 1", fam.Name, s.Values, s.Value)
			}
		}
	}
	if seen == 0 {
		t.Fatalf("no *_healthy series carries %s", addr)
	}
}
