package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

func testInstance(t *testing.T, n, k, m int) (*graph.Bipartite, *bitvec.Vector, []int64) {
	t.Helper()
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(12))
	y := query.Execute(g, sigma, query.Options{Seed: 13}).Y
	return g, sigma, y
}

func TestSchemeCacheHitIsPointerIdentical(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	a, err := e.Scheme(pooling.RandomRegular{}, 300, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Scheme(pooling.RandomRegular{}, 300, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("cache hit returned a different *Scheme: %p vs %p", a, b)
	}
	st := e.Stats()
	if st.SchemesBuilt != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 build and 1 hit", st)
	}
	// Different seed, parameters, or design must miss.
	c, err := e.Scheme(pooling.RandomRegular{}, 300, 120, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("different seed returned the cached scheme")
	}
	d, err := e.Scheme(pooling.RandomRegular{Gamma: 10}, 300, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Fatal("different design parameters returned the cached scheme")
	}
}

func TestCacheDeduplicatesConcurrentBuilds(t *testing.T) {
	c := newCache(4, &counters{})
	spec := Spec{Design: "stub", N: 10, M: 2, Seed: 1}
	g, err := pooling.Fixed{Queries: [][]int{{0, 1}, {2, 3}}}.Build(10, 2, pooling.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const waiters = 16
	var builds int
	gate := make(chan struct{})
	var mu sync.Mutex
	build := func() (*graph.Bipartite, error) {
		<-gate
		mu.Lock()
		builds++
		mu.Unlock()
		return g, nil
	}

	var wg sync.WaitGroup
	got := make([]*Scheme, waiters)
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.get(spec, build)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = s
		}(w)
	}
	time.Sleep(10 * time.Millisecond) // let the waiters pile onto the in-flight build
	close(gate)
	wg.Wait()

	if builds != 1 {
		t.Fatalf("build ran %d times, want exactly 1", builds)
	}
	for w := 1; w < waiters; w++ {
		if got[w] != got[0] {
			t.Fatalf("waiter %d got a different scheme", w)
		}
	}
}

func TestCacheBuildErrorIsNotCached(t *testing.T) {
	c := newCache(4, &counters{})
	spec := Spec{Design: "err", N: 1, M: 1, Seed: 1}
	boom := errors.New("boom")
	if _, err := c.get(spec, func() (*graph.Bipartite, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	g, err := pooling.Fixed{Queries: [][]int{{0}}}.Build(1, 1, pooling.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.get(spec, func() (*graph.Bipartite, error) { return g, nil })
	if err != nil || s == nil {
		t.Fatalf("retry after failed build: scheme=%v err=%v", s, err)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	e := New(Config{CacheCapacity: 2})
	defer e.Close()
	a, _ := e.Scheme(pooling.RandomRegular{}, 100, 40, 1)
	e.Scheme(pooling.RandomRegular{}, 100, 40, 2)
	// Touch seed 1 so seed 2 is the LRU victim.
	e.Scheme(pooling.RandomRegular{}, 100, 40, 1)
	e.Scheme(pooling.RandomRegular{}, 100, 40, 3)
	if got := e.cache.len(); got != 2 {
		t.Fatalf("cache holds %d schemes, want 2", got)
	}
	st := e.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// Seed 1 must still be cached (pointer identity), seed 2 rebuilt.
	a2, _ := e.Scheme(pooling.RandomRegular{}, 100, 40, 1)
	if a2 != a {
		t.Fatal("recently-used scheme was evicted")
	}
	e.Scheme(pooling.RandomRegular{}, 100, 40, 2)
	if st := e.Stats(); st.SchemesBuilt != 4 {
		t.Fatalf("schemes built = %d, want 4 (seed 2 rebuilt after eviction)", st.SchemesBuilt)
	}
}

func TestPipelineDecodeMatchesSerial(t *testing.T) {
	e := New(Config{Workers: 4})
	defer e.Close()
	g, sigma, y := testInstance(t, 400, 6, 300)
	s := e.SchemeFromGraph(g, "")

	for _, dec := range []decoder.Decoder{decoder.MN{}, decoder.Greedy{}, decoder.Refined{}} {
		res, err := e.Decode(context.Background(), Job{Scheme: s, Y: y, K: 6, Dec: dec})
		if err != nil {
			t.Fatalf("%s: %v", dec.Name(), err)
		}
		want, err := dec.Decode(g, y, 6)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Estimate.Equal(want) {
			t.Fatalf("%s: pipeline estimate differs from serial decode", dec.Name())
		}
		if res.Stats.Consistent != (decoder.Residual(g, want, y) == 0) {
			t.Fatalf("%s: consistency flag disagrees with decoder.Residual", dec.Name())
		}
	}
	// The default decoder recovers the planted signal at this m.
	res, err := e.Decode(context.Background(), Job{Scheme: s, Y: y, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimate.Equal(sigma) {
		t.Fatal("MN failed to recover the planted signal above threshold")
	}
	if !res.Stats.Consistent || res.Stats.Residual != 0 {
		t.Fatalf("exact recovery reported residual=%d consistent=%v", res.Stats.Residual, res.Stats.Consistent)
	}
	st := e.Stats()
	if st.JobsCompleted != 4 || st.JobsSubmitted != 4 {
		t.Fatalf("stats = %+v, want 4 submitted and completed", st)
	}
	if st.TotalDecodeTime <= 0 {
		t.Fatal("decode time not aggregated")
	}
}

// blockingDecoder parks until released; used to wedge the worker pool.
type blockingDecoder struct {
	release <-chan struct{}
}

func (blockingDecoder) Name() string { return "blocking" }

func (d blockingDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	<-d.release
	return bitvec.New(g.N()), nil
}

func TestSubmitCancellation(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	g, _, y := testInstance(t, 60, 3, 40)
	s := e.SchemeFromGraph(g, "")
	release := make(chan struct{})

	// Wedge the only worker.
	wedge, err := e.Submit(context.Background(), Job{Scheme: s, Y: y, K: 3, Dec: blockingDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has picked the wedge up so the queue is empty.
	deadline := time.Now().Add(time.Second)
	for e.Stats().JobsSubmitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Queued job whose context dies before a worker reaches it.
	ctx, cancel := context.WithCancel(context.Background())
	queued, err := e.Submit(ctx, Job{Scheme: s, Y: y, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// Fill the queue is done (depth 1, occupied by `queued`): a further
	// Submit with a dead context must abandon the enqueue wait.
	dead, deadCancel := context.WithCancel(context.Background())
	deadCancel()
	if _, err := e.Submit(dead, Job{Scheme: s, Y: y, K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit with dead context on a full queue: err = %v, want context.Canceled", err)
	}

	close(release)
	if _, err := wedge.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled job completed with err = %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.JobsCanceled != 1 {
		t.Fatalf("jobs canceled = %d, want 1", st.JobsCanceled)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	e := New(Config{Workers: 1})
	g, _, y := testInstance(t, 60, 3, 40)
	s := e.SchemeFromGraph(g, "")
	e.Close()
	if _, err := e.Submit(context.Background(), Job{Scheme: s, Y: y, K: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: err = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestSubmitValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	g, _, y := testInstance(t, 60, 3, 40)
	s := e.SchemeFromGraph(g, "")
	if _, err := e.Submit(context.Background(), Job{Scheme: s, Y: y[:10], K: 3}); err == nil {
		t.Fatal("short count vector accepted")
	}
	if _, err := e.Submit(context.Background(), Job{Scheme: s, Y: y, K: 61}); err == nil {
		t.Fatal("out-of-range k accepted")
	}
	if _, err := e.Submit(context.Background(), Job{Y: y, K: 3}); err == nil {
		t.Fatal("nil scheme accepted")
	}
}

func TestMeasureBatchAndDecodeBatch(t *testing.T) {
	e := New(Config{})
	defer e.Close()
	s, err := e.Scheme(pooling.RandomRegular{}, 500, 380, 21)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 9
	k := 7
	signals := make([]*bitvec.Vector, batch)
	for b := range signals {
		signals[b] = bitvec.Random(500, k, rng.NewRandSeeded(uint64(100+b)))
	}
	ys := e.MeasureBatch(s, signals, noise.Model{})
	for b, sig := range signals {
		want := query.Execute(s.G, sig, query.Options{}).Y
		for j := range want {
			if ys[b][j] != want[j] {
				t.Fatalf("batch measurement of signal %d differs from Execute at query %d", b, j)
			}
		}
	}
	results, err := e.DecodeBatch(context.Background(), s, ys, k, Job{})
	if err != nil {
		t.Fatal(err)
	}
	for b, res := range results {
		if !res.Estimate.Equal(signals[b]) {
			t.Fatalf("batched decode %d failed to recover its signal", b)
		}
	}
	if st := e.Stats(); st.SignalsMeasured != batch {
		t.Fatalf("signals measured = %d, want %d", st.SignalsMeasured, batch)
	}
}

func TestDecoderByName(t *testing.T) {
	for _, name := range []string{"", "mn", "mn-refined", "refined", "bp", "greedy", "greedy-omp", "lp", "lp-relaxation", "cs", "exhaustive"} {
		if _, err := DecoderByName(name); err != nil {
			t.Errorf("DecoderByName(%q): %v", name, err)
		}
	}
	if _, err := DecoderByName("nope"); err == nil {
		t.Error("unknown decoder accepted")
	}
}
