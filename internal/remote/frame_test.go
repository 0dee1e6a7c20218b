package remote

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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

// frameTestDesigns covers every design family an install carries:
// multi-edges (random-regular), plain 0/1 incidences (bernoulli,
// constant-column), an explicit Fixed design with an empty query, and a
// design with no queries at all. The sparse design is index-stored, the
// others bit-stored.
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

// TestDesignFrameRoundTrip: every design family across seeds, and the
// home scale, survive AppendBinary → ParseBinary with every row, every
// query's counts and the GraphKey. graph's TestBinaryRoundTrip covers
// the edge shapes of both layouts against a dense reference.
func TestDesignFrameRoundTrip(t *testing.T) {
	home, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]*graph.Bipartite{"home scale": home}
	for seed := uint64(1); seed <= 5; seed++ {
		for name, g := range frameTestDesigns(t, seed) {
			designs[fmt.Sprintf("%s seed %d", name, seed)] = g
		}
	}
	for name, g := range designs {
		got, err := graph.ParseBinary(g.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if got.N() != g.N() || got.M() != g.M() || got.DistinctPairs() != g.DistinctPairs() {
			t.Fatalf("%s: %d×%d with %d pairs came back %d×%d with %d", name, g.N(), g.M(), g.DistinctPairs(), got.N(), got.M(), got.DistinctPairs())
		}
		for i := 0; i < g.N(); i++ {
			q1, m1 := g.EntryQueries(i)
			q2, m2 := got.EntryQueries(i)
			if !slices.Equal(q1, q2) || !slices.Equal(m1, m2) {
				t.Fatalf("%s: entry %d row changed", name, i)
			}
		}
		for j := 0; j < g.M(); j++ {
			if got.QueryDistinct(j) != g.QueryDistinct(j) || got.QuerySize(j) != g.QuerySize(j) {
				t.Fatalf("%s: query %d counts %d/%d, want %d/%d", name, j, got.QueryDistinct(j), got.QuerySize(j), g.QueryDistinct(j), g.QuerySize(j))
			}
		}
		if engine.GraphKey(got) != engine.GraphKey(g) {
			t.Fatalf("%s: GraphKey changed", name)
		}
	}
}

// TestDesignFrameGolden pins the binary form's bytes: frontends and
// workers of different builds must read each other's installs, and the
// WAL's ad-hoc scheme records outlive the build that wrote them. The
// home-scale design and the paper's Fig. 1 are bit-stored; the last
// design is index-stored.
func TestDesignFrameGolden(t *testing.T) {
	home, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	form := home.AppendBinary(nil)
	h.Write(form)
	if got, want := h.Sum64(), uint64(0xe82018b271e14528); got != want || len(form) != 3159937 {
		t.Fatalf("home-scale form: %d bytes, digest %#x; want 3159937 bytes, %#x", len(form), got, want)
	}
	for _, tc := range []struct {
		n, m    int
		queries [][]int
		want    string
	}{
		{7, 5, [][]int{{0, 1, 3}, {1, 4, 6}, {0, 1, 4, 6, 6}, {2, 4}, {0, 5, 5, 6, 6}},
			"70640207050f1500000000000000070000000000000008000000000000000100000000000000" +
				"0e0000000000000010000000000000001600000000000000010101010101010101010102010202"},
		{7, 5, [][]int{{0}, {}, {6, 2}, {2, 2, 2}, {}}, "706402070504010100020301000000010301010301"},
	} {
		g, err := pooling.Fixed{Queries: tc.queries}.Build(tc.n, tc.m, pooling.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(g.AppendBinary(nil)); got != tc.want {
			t.Errorf("form of %v: %s, want %s", tc.queries, got, tc.want)
		}
	}
}

// TestDesignFrameParseFootprint guards the install path's memory: parsing
// the home-scale form allocates the graph once, at its final size of a
// multiplicity byte per pair and a bit per (entry, query) cell, plus
// O(n + m) — never a query index per pair, nor a query-side copy next
// to it.
func TestDesignFrameParseFootprint(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	form := g.AppendBinary(nil)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := graph.ParseBinary(form)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	size := got.DistinctPairs() + int64(got.N())*int64((got.M()+63)/64)*8
	limit := uint64(1.1*float64(size)) + 64*uint64(got.N()) + 64*uint64(got.M())
	t.Logf("parsing the home-scale form allocated %d bytes, limit %d", alloc, limit)
	if alloc > limit {
		t.Fatalf("parsing the home-scale form allocated %d bytes, limit %d (pairs and bitmap: %d)", alloc, limit, size)
	}
}

// TestDesignFrameEncodeFootprint: encoding the home-scale design
// allocates one buffer, of at most 1.05 × the form's length: the form is
// sized before it is written, so it never grows.
func TestDesignFrameEncodeFootprint(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	form := g.AppendBinary(nil)
	runtime.ReadMemStats(&after)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1.05*float64(len(form))); alloc > limit {
		t.Fatalf("encoding the %d-byte home-scale form allocated %d bytes, limit %d", len(form), alloc, limit)
	}
}

// designFrame hand-assembles a binary form: the header's n, m and pair
// count, then the body bytes as given.
func designFrame(n, m, pairs uint64, body ...byte) []byte {
	buf := []byte{'p', 'd', 2}
	for _, v := range []uint64{n, m, pairs} {
		buf = binary.AppendUvarint(buf, v)
	}
	return append(buf, body...)
}

// Small forms to state hostile input with. One entry and four queries
// with three pairs is bit-stored: 8 bytes of bits against 12 of indices.
// Four entries and one or two queries are always index-stored.
var (
	// bits sets queries 0, 1 and 2 of the one entry.
	bits3 = []byte{0b0111, 0, 0, 0, 0, 0, 0, 0}
	// validBits is bits3 with multiplicities 1, 3 and 255.
	validBits = designFrame(1, 4, 3, append(slices.Clone(bits3), 1, 3, 255)...)
	// validIndex: entry 0 in query 0 (delta 1), entry 2 in queries 0 and
	// 1 (deltas 1, 1), multiplicities 1, 3, 255.
	validIndex = designFrame(4, 2, 3, 1, 1, 0, 2, 1, 1, 0, 1, 3, 255)
)

// hostileDesignFrames are forms the parser must refuse. Each is also
// checked in as a FuzzDesignFrame seed under testdata/fuzz, named by its
// key. The names of version 1's seeds are kept where the intent carries
// over: entry-at-n and entry-past-n now name a query at and past m,
// distinct-above-n a pair count above n·m, and huge-multiplicity a
// query delta of 2^32 + 1, which read as 32 bits would be a legal 1.
var hostileDesignFrames = map[string][]byte{
	"empty":             {},
	"wrong-magic":       {'p', 'b', 2, 1, 0, 0},
	"wrong-version":     {'p', 'd', 3, 1, 0, 0},
	"version-1":         {'p', 'd', 1, 4, 1, 1, 1, 1},
	"truncated-prelude": {'p', 'd'},
	"truncated-header":  {'p', 'd', 2, 4},
	"truncated-after-m": {'p', 'd', 2, 4, 2},
	"truncated-body":    designFrame(1, 4, 3),
	"truncated-bits":    designFrame(1, 4, 3, bits3[:5]...),
	"truncated-mults":   designFrame(1, 4, 3, append(slices.Clone(bits3), 1, 1)...),
	"truncated-query":   validIndex[:len(validIndex)-5],
	"huge-n":            designFrame(graph.MaxParsedDim+1, 0, 0),
	"huge-m":            designFrame(4, 1<<40, 0),
	"huge-distinct":     designFrame(4, 1, 1<<40, 1),
	"distinct-above-n":  designFrame(2, 1, 3, 1, 1, 1, 1, 1, 1, 1),
	"bits-missing":      designFrame(1000, 64, 3000, make([]byte, 3000)...),
	"bits-short":        designFrame(1, 4, 4, 0b1111, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1),
	"popcount-below":    designFrame(1, 4, 3, append([]byte{0b0011, 0, 0, 0, 0, 0, 0, 0}, 1, 1, 1)...),
	"popcount-above":    designFrame(1, 4, 3, append([]byte{0b1111, 0, 0, 0, 0, 0, 0, 0}, 1, 1, 1)...),
	"bit-at-m":          designFrame(1, 4, 3, append([]byte{0b10011, 0, 0, 0, 0, 0, 0, 0}, 1, 1, 1)...),
	"bit-past-m":        designFrame(1, 4, 3, append([]byte{0b0011, 0, 0, 0, 0, 0, 0, 0x80}, 1, 1, 1)...),
	"zero-delta":        designFrame(4, 2, 2, 2, 1, 0, 0, 0, 0, 1, 1),
	"entry-at-n":        designFrame(4, 1, 1, 1, 2, 0, 0, 0, 1),
	"entry-past-n":      designFrame(4, 2, 2, 2, 1, 3, 0, 0, 0, 1, 1),
	"degree-above-m":    designFrame(4, 1, 2, 2, 1, 1, 0, 0, 0, 1, 1),
	"degrees-below":     designFrame(4, 1, 2, 1, 1, 0, 0, 0, 1, 1),
	"huge-multiplicity": designFrame(4, 1, 1, 1, 0x81, 0x80, 0x80, 0x80, 0x10, 0, 0, 0, 1),
	"zero-multiplicity": designFrame(4, 2, 3, 1, 1, 0, 2, 1, 1, 0, 1, 0, 1),
	"trailing-bytes":    append(slices.Clone(validBits), 0),
	"trailing-rows":     append(validIndex[:len(validIndex)-3:len(validIndex)-3], 0, 1, 3, 255),
}

// TestDesignFrameRejectsHostile: every hostile form is refused with an
// error, and each hostile seed is in the fuzz corpus. Damage to the end
// of a larger form, of either layout, is refused before the parser
// allocates the graph: each refusal allocates less than its entry
// offsets alone would take.
func TestDesignFrameRejectsHostile(t *testing.T) {
	for name, form := range map[string][]byte{"bits": validBits, "index": validIndex} {
		g, err := graph.ParseBinary(form)
		if err != nil {
			t.Fatalf("control %s form rejected: %v", name, err)
		}
		if _, mu := g.EntryQueries(g.N() / 2); mu[len(mu)-1] != graph.MaxMultiplicity {
			t.Fatalf("control %s form: multiplicities %v", name, mu)
		}
	}
	for name, form := range hostileDesignFrames {
		if g, err := graph.ParseBinary(form); err == nil {
			t.Errorf("%s: parsed into n=%d m=%d", name, g.N(), g.M())
		}
		seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDesignFrame", name))
		if err != nil {
			t.Errorf("%s: not in the fuzz corpus: %v", name, err)
			continue
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", form); string(seed) != want {
			t.Errorf("%s: corpus file holds %q, want %q", name, seed, want)
		}
	}
	for _, d := range []struct {
		design pooling.Design
		n, m   int
		bits   bool
	}{{pooling.RandomRegular{}, 2000, 130, true}, {pooling.RandomRegular{Gamma: 5}, 5000, 40, false}} {
		g, err := d.design.Build(d.n, d.m, pooling.BuildOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		form := g.AppendBinary(nil)
		damaged := map[string][]byte{
			"short":          form[:len(form)-1],
			"long":           append(slices.Clone(form), 1),
			"last mult zero": append(slices.Clone(form[:len(form)-1]), 0),
		}
		if d.bits {
			words := g.N() * ((g.M() + 63) / 64)
			first := len(form) - int(g.DistinctPairs()) - 8*words // entry 0's first word
			last := first + 8*(words-1)                           // the last entry's last word
			atM := slices.Clone(form)
			atM[last] |= 1 << (g.M() & 7) // m = 130: query 130 is bit 2 of block 2
			damaged["bit at m"] = atM
			popcount := slices.Clone(form)
			popcount[first] ^= 1 // entry 0, query 0
			damaged["popcount"] = popcount
		}
		for what, bad := range damaged {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := graph.ParseBinary(bad)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d×%d form, %s: parsed", g.N(), g.M(), what)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8*uint64(g.N()) {
				t.Errorf("%d×%d form, %s: refused after allocating %d bytes (%v)", g.N(), g.M(), what, alloc, err)
			}
		}
	}
}

// FuzzDesignFrame throws arbitrary bytes at the design parser: it must
// never panic or allocate past the input's size class, and any form it
// accepts must re-encode and re-parse to the same graph.
func FuzzDesignFrame(f *testing.F) {
	for _, g := range frameTestDesigns(f, 1) {
		if g.DistinctPairs() < 512 {
			f.Add(g.AppendBinary(nil))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := graph.ParseBinary(data)
		if err != nil {
			return
		}
		again, err := graph.ParseBinary(g.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-encoded design failed to parse: %v", err)
		}
		if engine.GraphKey(again) != engine.GraphKey(g) {
			t.Fatal("design not stable under re-encode")
		}
	})
}
