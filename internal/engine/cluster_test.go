package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

func bitvecRandom(t testing.TB, n, k int, seed uint64) *bitvec.Vector {
	t.Helper()
	return bitvec.Random(n, k, rng.NewRandSeeded(seed))
}

// findSeedsOnDistinctShards returns two seeds whose (default design,
// n, m) specs hash to different shards of c.
func findSeedsOnDistinctShards(t testing.TB, c *Cluster, n, m int) (uint64, uint64) {
	t.Helper()
	first := uint64(1)
	fs := c.ShardOf(SpecFor(pooling.RandomRegular{}, n, m, first))
	for seed := first + 1; seed < first+64; seed++ {
		if c.ShardOf(SpecFor(pooling.RandomRegular{}, n, m, seed)) != fs {
			return first, seed
		}
	}
	t.Fatal("no seed pair landed on distinct shards")
	return 0, 0
}

func TestClusterRoutesSpecsToOwningShard(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 4, Shard: Config{Workers: 1}})
	defer c.Close()

	built := 0
	for seed := uint64(1); seed <= 8; seed++ {
		spec := SpecFor(pooling.RandomRegular{}, 120, 60, seed)
		want := c.ShardOf(spec)
		s, err := c.Scheme(pooling.RandomRegular{}, 120, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		if s.Home() != want {
			t.Fatalf("seed %d: scheme home %d, ShardOf says %d", seed, s.Home(), want)
		}
		built++
		// Repeat request: identical pointer from the owning shard's cache.
		again, err := c.Scheme(pooling.RandomRegular{}, 120, 60, seed)
		if err != nil {
			t.Fatal(err)
		}
		if again != s {
			t.Fatalf("seed %d: cache hit returned a different pointer", seed)
		}
	}

	cs := c.Stats()
	if cs.Total.SchemesBuilt != uint64(built) || cs.Total.CacheHits != uint64(built) {
		t.Fatalf("total stats = %+v, want %d builds and hits", cs.Total, built)
	}
	var sumBuilt, sumCached uint64
	for i, sh := range cs.Shards {
		if sh.Shard != i {
			t.Fatalf("shard %d labeled %d", i, sh.Shard)
		}
		sumBuilt += sh.SchemesBuilt
		sumCached += uint64(sh.CachedSchemes)
	}
	if sumBuilt != uint64(built) || sumCached != uint64(built) {
		t.Fatalf("per-shard sums: built %d cached %d, want %d", sumBuilt, sumCached, built)
	}
}

func TestClusterNoCrossShardEviction(t *testing.T) {
	// Per-shard capacity 1: if both designs lived on one shard they would
	// evict each other on every alternation. On distinct shards the
	// pointers survive the whole interleaving.
	c := NewCluster(ClusterConfig{Shards: 2, Shard: Config{CacheCapacity: 1, Workers: 1}})
	defer c.Close()
	const n, m = 150, 70
	seedA, seedB := findSeedsOnDistinctShards(t, c, n, m)

	a0, err := c.Scheme(nil, n, m, seedA)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := c.Scheme(nil, n, m, seedB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a, _ := c.Scheme(nil, n, m, seedA)
		b, _ := c.Scheme(nil, n, m, seedB)
		if a != a0 || b != b0 {
			t.Fatalf("iteration %d: scheme identity lost (cross-shard eviction)", i)
		}
	}
	if ev := c.Stats().Total.Evictions; ev != 0 {
		t.Fatalf("evictions = %d, want 0", ev)
	}
}

func TestClusterSubmitRoutesToOwner(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 3, Shard: Config{Workers: 1}})
	defer c.Close()
	const n, k, m = 200, 4, 150
	s, err := c.Scheme(nil, n, m, 5)
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvecRandom(t, n, k, 31)
	y := query.Execute(s.G, sigma, query.Options{}).Y

	res, err := c.Decode(context.Background(), Job{Scheme: s, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimate.Equal(sigma) {
		t.Fatal("cluster decode failed to recover the signal")
	}
	// Exactly the owning shard moved its counters.
	cs := c.Stats()
	for i, sh := range cs.Shards {
		want := uint64(0)
		if i == s.Home() {
			want = 1
		}
		if sh.JobsCompleted != want {
			t.Fatalf("shard %d completed %d jobs, want %d", i, sh.JobsCompleted, want)
		}
	}
	if _, err := c.Submit(context.Background(), Job{}); err == nil {
		t.Fatal("nil-scheme job accepted by cluster")
	}
}

// TestGraphKeyGolden pins the content hash of two designs: ad-hoc
// routing keys and worker install ids are these strings, so a change
// that reorders or drops a single incidence must fail here.
func TestGraphKeyGolden(t *testing.T) {
	home, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 1 example, multi-edges included.
	fig1, err := pooling.Fixed{Queries: [][]int{{0, 1, 3}, {1, 4, 6}, {0, 1, 4, 6, 6}, {2, 4}, {0, 5, 5, 6, 6}}}.Build(7, 5, pooling.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Bipartite
		want string
	}{
		{"home scale (random-regular n=10^4 m=600 seed 1)", home, "adhoc|b9e4b4ffe5f62f3c"},
		{"Fig. 1 fixed design", fig1, "adhoc|a78951d46bce068f"},
	} {
		if got := GraphKey(tc.g); got != tc.want {
			t.Errorf("%s: GraphKey %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestClusterSchemeFromGraphContentHashPlacement(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 4, Shard: Config{Workers: 1}})
	defer c.Close()

	// Re-uploading the same design always lands on the same shard: the
	// content hash, not the upload order, decides placement.
	g, err := pooling.RandomRegular{}.Build(50, 20, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := c.SchemeFromGraph(g, GraphKey(g))
	if first.RouteKey() != GraphKey(g) {
		t.Fatalf("ad-hoc scheme route key %q, want content hash %q", first.RouteKey(), GraphKey(g))
	}
	for i := 0; i < 4; i++ {
		if home := c.SchemeFromGraph(g, GraphKey(g)).Home(); home != first.Home() {
			t.Fatalf("re-upload %d landed on shard %d, first upload on %d", i, home, first.Home())
		}
	}

	// An identical rebuild (same bytes, different *graph.Bipartite) hashes
	// the same; a different design hashes differently.
	g2, err := pooling.RandomRegular{}.Build(50, 20, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if GraphKey(g2) != GraphKey(g) {
		t.Fatal("identical graphs produced different content hashes")
	}
	other, err := pooling.RandomRegular{}.Build(50, 20, pooling.BuildOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if GraphKey(other) == GraphKey(g) {
		t.Fatal("distinct graphs produced the same content hash")
	}

	// Across many distinct uploads, placement spreads over the fleet.
	seen := map[int]int{}
	for seed := uint64(1); seed <= 32; seed++ {
		gi, err := pooling.RandomRegular{}.Build(50, 20, pooling.BuildOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		seen[c.SchemeFromGraph(gi, GraphKey(gi)).Home()]++
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct uploads all landed on one shard: %v", seen)
	}
}

func TestClusterInstallScheme(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 2, Shard: Config{Workers: 1}})
	defer c.Close()
	const n, k, m = 120, 3, 90
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Design: "file:standing.csv", N: n, M: m}
	s := c.InstallScheme(spec, g)
	if s.Home() != c.ShardOf(spec) {
		t.Fatalf("installed scheme home %d, ShardOf says %d", s.Home(), c.ShardOf(spec))
	}
	if got := c.Shard(s.Home()).CachedSchemes(); got != 1 {
		t.Fatalf("owning shard caches %d schemes, want 1", got)
	}
	sigma := bitvecRandom(t, n, k, 17)
	y := query.Execute(g, sigma, query.Options{}).Y
	res, err := c.Decode(context.Background(), Job{Scheme: s, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Estimate.Equal(sigma) {
		t.Fatal("decode on installed scheme failed")
	}
	if st := c.Stats().Total; st.SchemesBuilt != 0 {
		t.Fatalf("install counted as a build: %+v", st)
	}
}

func TestTrySubmitSaturated(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	g, _, y := testInstance(t, 60, 3, 40)
	s := e.SchemeFromGraph(g, "")
	release := make(chan struct{})

	// Wedge the worker, wait for pickup, then fill the queue.
	wedge, err := e.Submit(context.Background(), Job{Scheme: s, Y: y, K: 3, Dec: blockingDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for e.QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	queued, err := e.Submit(context.Background(), Job{Scheme: s, Y: y, K: 3, Dec: blockingDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Saturated() {
		t.Fatal("queue not saturated after filling it")
	}

	if _, err := e.TrySubmit(context.Background(), Job{Scheme: s, Y: y, K: 3}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySubmit on a full queue: err = %v, want ErrSaturated", err)
	}
	e.NoteRejected(3)
	if st := e.Stats(); st.JobsRejected != 4 {
		t.Fatalf("jobs rejected = %d, want 4", st.JobsRejected)
	}

	close(release)
	if _, err := wedge.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// With the pool free again TrySubmit admits.
	fut, err := e.TrySubmit(context.Background(), Job{Scheme: s, Y: y, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyHistograms(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 2, Shard: Config{Workers: 1}})
	defer c.Close()
	const n, k, m = 150, 3, 110
	seedA, seedB := findSeedsOnDistinctShards(t, c, n, m)
	for _, seed := range []uint64{seedA, seedB} {
		s, err := c.Scheme(nil, n, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		sigma := bitvecRandom(t, n, k, seed+100)
		y := query.Execute(s.G, sigma, query.Options{}).Y
		if _, err := c.Decode(context.Background(), Job{Scheme: s, Y: y, K: k}); err != nil {
			t.Fatal(err)
		}
	}

	total := c.Stats().Total
	h, ok := total.DecodeLatency["mn"]
	if !ok {
		t.Fatalf("no merged histogram for mn: %v", total.DecodeLatency)
	}
	if h.Count != 2 {
		t.Fatalf("histogram count = %d, want 2 (one decode per shard)", h.Count)
	}
	if len(h.Counts) != len(h.BucketUpperNS)+1 {
		t.Fatalf("histogram shape: %d counts for %d bounds", len(h.Counts), len(h.BucketUpperNS))
	}
	var sum uint64
	for _, cnt := range h.Counts {
		sum += cnt
	}
	if sum != h.Count || h.TotalNS <= 0 {
		t.Fatalf("histogram sum %d total %dns, want sum=%d and total>0", sum, h.TotalNS, h.Count)
	}
	// The raw samples are bounded: only bucket counters are retained.
	for _, sh := range c.Stats().Shards {
		for name, hist := range sh.DecodeLatency {
			if len(hist.Counts) != len(latencyBounds)+1 {
				t.Fatalf("shard %d decoder %s: %d buckets", sh.Shard, name, len(hist.Counts))
			}
		}
	}
}
