package remote

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
	"pooleddata/metrics"
)

func TestBatchFrameRoundTrip(t *testing.T) {
	jobs := []batchJob{
		{Scheme: "random-regular|400|160|7", Noise: "exact", Decoder: "mn", Trace: "t-1", K: 6,
			Y: []int64{0, 3, -1, 1 << 40, -(1 << 40)}},
		{Scheme: "adhoc-1-2", Noise: "gaussian:1.5:5", Trace: "", K: 0, Y: []int64{}},
	}
	parsed, err := parseBatchRequest(appendBatchRequest(nil, jobs))
	if err != nil {
		t.Fatalf("parse request: %v", err)
	}
	if !reflect.DeepEqual(parsed, jobs) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", parsed, jobs)
	}

	results := []batchResult{
		{Status: batchOK, Decoder: "mn-refined", Residual: -12, Consistent: true,
			QueueNS: 12345, DecodeNS: 67890, Support: []int{0, 2, 2, 17, 399}},
		{Status: batchSaturated, Err: "decode queue saturated"},
		{Status: batchOK, Decoder: "mn", Residual: 0, Consistent: false,
			QueueNS: 0, DecodeNS: 1},
		{Status: batchDecodeErr, Err: "k out of range"},
	}
	got, err := parseBatchResponse(appendBatchResponse(nil, results))
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if !reflect.DeepEqual(got, results) {
		t.Fatalf("response round trip:\n got %+v\nwant %+v", got, results)
	}
}

// TestBatchFrameRejectsHostileLengths: claimed sizes beyond what the
// frame can hold must fail cleanly before any allocation matches them.
func TestBatchFrameRejectsHostileLengths(t *testing.T) {
	huge := appendUvarint([]byte{'p', 'b', frameVersion}, 1)
	huge = appendString(huge, "s")
	huge = appendString(huge, "exact")
	huge = appendString(huge, "")
	huge = appendString(huge, "")
	huge = appendUvarint(huge, 1)
	huge = appendUvarint(huge, 1<<40) // y claims a terabyte
	if _, err := parseBatchRequest(huge); err == nil {
		t.Fatal("request with absurd y length parsed")
	}

	manyJobs := appendUvarint([]byte{'p', 'b', frameVersion}, maxBatchJobs+1)
	if _, err := parseBatchRequest(manyJobs); err == nil {
		t.Fatal("request with over-limit job count parsed")
	}

	resp := appendUvarint([]byte{'p', 'r', frameVersion}, 1)
	resp = append(resp, batchOK)
	resp = appendString(resp, "mn")
	resp = append(resp, 0) // residual varint 0
	resp = append(resp, 1) // consistent
	resp = appendUvarint(resp, 0)
	resp = appendUvarint(resp, 0)
	resp = appendUvarint(resp, 1<<40) // support claims 2^40 entries
	if _, err := parseBatchResponse(resp); err == nil {
		t.Fatal("response with absurd support length parsed")
	}

	if _, err := parseBatchRequest([]byte{'p', 'b', frameVersion + 1, 0}); err == nil {
		t.Fatal("future frame version parsed")
	}
	valid := appendBatchRequest(nil, []batchJob{{Scheme: "s", Noise: "exact", Y: []int64{1}}})
	if _, err := parseBatchRequest(append(valid, 0xFF)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestBatchedDecodeMatchesLocal is the wire-format contract of the
// coalesced path: a burst of exact and noisy jobs shipped as binary
// batch frames settles bit-identically to the same jobs on a local
// engine, while the request count proves that jobs queued behind an
// in-flight frame shared the next one.
func TestBatchedDecodeMatchesLocal(t *testing.T) {
	const n, m, k, batch = 400, 160, 6, 24
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.2, Seed: 9}

	local := engine.New(engine.Config{})
	defer local.Close()
	ls, err := local.Scheme(nil, n, m, 7)
	if err != nil {
		t.Fatal(err)
	}

	wc := engine.NewCluster(engine.ClusterConfig{
		Shards: 1, Shard: engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})
	t.Cleanup(wc.Close)
	var batchPosts atomic.Int64
	inner := NewServer(wc, ServerOptions{}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == decodeBatchPath {
			batchPosts.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	reg := metrics.NewRegistry()
	sh := newShard(t, ts, func(o *Options) {
		o.Senders = 1
		o.QueueDepth = batch
		o.Metrics = reg
	})
	cluster := engine.NewClusterOf(sh)
	rs, err := cluster.Scheme(nil, n, m, 7)
	if err != nil {
		t.Fatal(err)
	}

	sigmas := make([]*bitvec.Vector, batch)
	ys := make([][]int64, batch)
	models := make([]noise.Model, batch)
	for b := range sigmas {
		sigmas[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(50+b)))
		if b%2 == 0 {
			ys[b] = query.Execute(ls.G, sigmas[b], query.Options{}).Y
		} else {
			models[b] = nm
			ys[b] = local.MeasureBatch(ls, sigmas[b:b+1], nm)[0]
		}
	}

	futs := make([]*engine.Future, batch)
	for b := range futs {
		fut, err := cluster.Submit(context.Background(), engine.Job{Scheme: rs, Y: ys[b], K: k, Noise: models[b]})
		if err != nil {
			t.Fatalf("submit %d: %v", b, err)
		}
		futs[b] = fut
	}
	for b, fut := range futs {
		got, err := fut.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", b, err)
		}
		want, err := local.Decode(context.Background(), engine.Job{Scheme: ls, Y: ys[b], K: k, Noise: models[b]})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Support, want.Support) {
			t.Fatalf("job %d support %v != local %v", b, got.Support, want.Support)
		}
		if got.Decoder != want.Decoder {
			t.Fatalf("job %d decoder %q != local %q", b, got.Decoder, want.Decoder)
		}
		if got.Stats.Residual != want.Stats.Residual || got.Stats.Consistent != want.Stats.Consistent {
			t.Fatalf("job %d stats (res=%d cons=%v) != local (res=%d cons=%v)",
				b, got.Stats.Residual, got.Stats.Consistent, want.Stats.Residual, want.Stats.Consistent)
		}
	}

	if bp := batchPosts.Load(); bp < 1 || bp >= batch {
		t.Fatalf("batch posts = %d for %d jobs, want coalescing (1..%d)", bp, batch, batch-1)
	}
	addr := ts.Listener.Addr().String()
	var observed uint64
	for _, fam := range reg.Gather() {
		if fam.Name != "pooled_remote_batch_jobs" {
			continue
		}
		for _, smp := range fam.Samples {
			if smp.Values[0] == addr {
				observed = smp.Count
			}
		}
	}
	if observed != uint64(batchPosts.Load()) {
		t.Fatalf("batch-size histogram observed %d requests, wire saw %d", observed, batchPosts.Load())
	}
}

// FuzzBatchFrame throws arbitrary bytes at both frame parsers: they
// must never panic, never allocate beyond the input's own size class,
// and anything they accept must re-encode and re-parse to the same
// value.
func FuzzBatchFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'p', 'b', frameVersion, 0})
	f.Add([]byte{'p', 'r', frameVersion, 0})
	f.Add(appendBatchRequest(nil, []batchJob{
		{Scheme: "random-regular|400|160|7", Noise: "gaussian:1.5:5", Decoder: "mn", Trace: "t", K: 6, Y: []int64{1, -2, 3}},
	}))
	f.Add(appendBatchResponse(nil, []batchResult{
		{Status: batchOK, Decoder: "mn-refined", Residual: -7, Consistent: true, QueueNS: 5, DecodeNS: 9, Support: []int{2, 5, 9}},
		{Status: batchSaturated, Err: "full"},
	}))
	valid := appendBatchRequest(nil, []batchJob{{Scheme: "s", Noise: "exact", Y: []int64{42}}})
	f.Add(valid[:len(valid)/2])
	f.Add(append(valid[:len(valid):len(valid)], 0xFF))
	f.Add([]byte{'p', 'b', frameVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		if jobs, err := parseBatchRequest(data); err == nil {
			again, err := parseBatchRequest(appendBatchRequest(nil, jobs))
			if err != nil {
				t.Fatalf("re-encoded request failed to parse: %v", err)
			}
			if !reflect.DeepEqual(again, jobs) {
				t.Fatalf("request not stable under re-encode:\n got %+v\nwant %+v", again, jobs)
			}
		}
		if results, err := parseBatchResponse(data); err == nil {
			again, err := parseBatchResponse(appendBatchResponse(nil, results))
			if err != nil {
				t.Fatalf("re-encoded response failed to parse: %v", err)
			}
			if !reflect.DeepEqual(again, results) {
				t.Fatalf("response not stable under re-encode:\n got %+v\nwant %+v", again, results)
			}
		}
	})
}

// frameTestDesigns covers every design family the frame must carry:
// multi-edges (random-regular), plain 0/1 incidences (bernoulli,
// constant-column), an explicit Fixed design with an empty query, and a
// design with no queries at all.
func frameTestDesigns(t testing.TB, seed uint64) map[string]*graph.Bipartite {
	t.Helper()
	build := func(d pooling.Design, n, m int) *graph.Bipartite {
		g, err := d.Build(n, m, pooling.BuildOptions{Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		return g
	}
	return map[string]*graph.Bipartite{
		"random-regular":  build(pooling.RandomRegular{}, 300+int(seed%7), 90),
		"sparse-regular":  build(pooling.RandomRegular{Gamma: 5}, 5000, 40),
		"bernoulli":       build(pooling.Bernoulli{}, 250, 70),
		"constant-column": build(pooling.ConstantColumn{}, 200, 60),
		"fixed":           build(pooling.Fixed{Queries: [][]int{{0, 0, 3, 1, 0}, {}, {5}, {2, 4, 4}}}, 6, 4),
		"no-queries":      build(pooling.RandomRegular{}, 10, 0),
	}
}

// TestDesignFrameRoundTrip: every design family survives encode → parse
// GraphKey-identical, across seeds.
func TestDesignFrameRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for name, g := range frameTestDesigns(t, seed) {
			got, err := ParseDesign(AppendDesign(nil, g))
			if err != nil {
				t.Fatalf("%s seed %d: parse: %v", name, seed, err)
			}
			if engine.GraphKey(got) != engine.GraphKey(g) {
				t.Fatalf("%s seed %d: round trip changed the graph", name, seed)
			}
		}
	}
}

// TestDesignFrameGolden pins the install frame's bytes: frontends and
// workers of different builds must read each other's frames, so the
// encoding may not drift whatever the graph stores.
func TestDesignFrameGolden(t *testing.T) {
	home, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	frame := AppendDesign(nil, home)
	h.Write(frame)
	if got, want := h.Sum64(), uint64(0x1a91490559cd5e4b); got != want || len(frame) != 4721059 {
		t.Fatalf("home-scale frame: %d bytes, digest %#x; want 4721059 bytes, %#x", len(frame), got, want)
	}
	fig1, err := pooling.Fixed{Queries: [][]int{{0, 1, 3}, {1, 4, 6}, {0, 1, 4, 6, 6}, {2, 4}, {0, 5, 5, 6, 6}}}.Build(7, 5, pooling.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := "70640107050301010101020103020103010201040101010103010202020301020103010105020102"
	if got := hex.EncodeToString(AppendDesign(nil, fig1)); got != want {
		t.Fatalf("Fig. 1 frame %s, want %s", got, want)
	}
}

// TestDesignFrameParseFootprint guards the install path's memory: parsing
// the home-scale frame allocates the entry side once, at its final size
// of a multiplicity byte per pair and a bit per (entry, query) cell, plus
// O(n + m) scratch — never a query index per pair, nor a query-side copy
// next to it.
func TestDesignFrameParseFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendDesign(nil, g)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := ParseDesign(frame)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	size := got.DistinctPairs() + int64(got.N())*int64((got.M()+63)/64)*8
	limit := uint64(1.1*float64(size)) + 64*uint64(got.N()) + 64*uint64(got.M())
	t.Logf("parsing the home-scale frame allocated %d bytes, limit %d", alloc, limit)
	if alloc > limit {
		t.Fatalf("parsing the home-scale frame allocated %d bytes, limit %d (pairs and bitmap: %d)", alloc, limit, size)
	}
}

// TestSkipVarints checks the word-at-a-time varint skip against a byte
// walk on random varint streams, cut short at random.
func TestSkipVarints(t *testing.T) {
	naive := func(data []byte, pos int, k uint64) int {
		for ; k > 0; k-- {
			for pos < len(data) && data[pos] >= 0x80 {
				pos++
			}
			if pos == len(data) {
				return -1
			}
			pos++
		}
		return pos
	}
	r := rng.NewRandSeeded(3)
	for trial := 0; trial < 2000; trial++ {
		var data []byte
		for v := r.Intn(80); v > 0; v-- {
			data = binary.AppendUvarint(data, r.Uint64()>>(r.Intn(64)))
		}
		data = data[:r.Intn(len(data)+1)]
		pos := r.Intn(len(data) + 1)
		k := uint64(r.Intn(90))
		if got, want := skipVarints(data, pos, k), naive(data, pos, k); got != want {
			t.Fatalf("trial %d: skipVarints(%x, %d, %d) = %d, want %d", trial, data, pos, k, got, want)
		}
	}
}

// designFrame hand-assembles a design frame from raw uvarints after the
// prelude, so tests can state hostile frames field by field.
func designFrame(fields ...uint64) []byte {
	buf := []byte{'p', 'd', frameVersion}
	for _, v := range fields {
		buf = appendUvarint(buf, v)
	}
	return buf
}

// hostileDesignFrames are frames the parser must refuse. Each is also
// checked in as a FuzzDesignFrame seed under testdata/fuzz, named by its
// key.
var hostileDesignFrames = map[string][]byte{
	"empty":             {},
	"wrong-magic":       {'p', 'b', frameVersion, 1, 0},
	"wrong-version":     {'p', 'd', frameVersion + 1, 1, 0},
	"truncated-prelude": {'p', 'd'},
	"truncated-header":  designFrame(4),
	"truncated-query":   designFrame(4, 2, 1, 1, 1),
	"huge-n":            designFrame(graph.MaxParsedDim+1, 0),
	"huge-m":            designFrame(4, 1<<40),
	"huge-distinct":     designFrame(4, 1, 1<<40),
	"distinct-above-n":  designFrame(2, 1, 3, 1, 1, 1, 1, 1, 1),
	"zero-delta":        designFrame(4, 1, 2, 1, 1, 0, 1),
	"entry-at-n":        designFrame(4, 1, 1, 5, 1),
	"entry-past-n":      designFrame(4, 1, 2, 2, 1, 3, 1),
	"zero-multiplicity": designFrame(4, 1, 1, 1, 0),
	"multiplicity-256":  designFrame(4, 1, 1, 1, graph.MaxMultiplicity+1),
	"huge-multiplicity": designFrame(4, 1, 1, 1, 1<<31),
	"trailing-bytes":    append(designFrame(4, 1, 1, 1, 1), 0),
}

func TestDesignFrameRejectsHostile(t *testing.T) {
	for _, mu := range []uint64{3, graph.MaxMultiplicity} {
		if _, err := ParseDesign(designFrame(4, 1, 2, 1, 1, 2, mu)); err != nil {
			t.Fatalf("control frame with multiplicity %d rejected: %v", mu, err)
		}
	}
	for name, data := range hostileDesignFrames {
		if g, err := ParseDesign(data); err == nil {
			t.Errorf("%s: parsed into n=%d m=%d", name, g.N(), g.M())
		}
	}
}

// FuzzDesignFrame throws arbitrary bytes at the design parser: it must
// never panic or allocate past the input's size class, and any frame it
// accepts must re-encode and re-parse to the same graph.
func FuzzDesignFrame(f *testing.F) {
	for _, g := range frameTestDesigns(f, 1) {
		if g.DistinctPairs() < 512 {
			f.Add(AppendDesign(nil, g))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseDesign(data)
		if err != nil {
			return
		}
		again, err := ParseDesign(AppendDesign(nil, g))
		if err != nil {
			t.Fatalf("re-encoded design failed to parse: %v", err)
		}
		if engine.GraphKey(again) != engine.GraphKey(g) {
			t.Fatal("design not stable under re-encode")
		}
	})
}
