package pooling

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pooleddata/internal/graph"
	"pooleddata/internal/rng"
)

func TestRandomRegularQuerySizes(t *testing.T) {
	d := RandomRegular{}
	g, err := d.Build(100, 40, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 || g.M() != 40 {
		t.Fatalf("sizes %d,%d", g.N(), g.M())
	}
	for j := 0; j < g.M(); j++ {
		if g.QuerySize(j) != 50 {
			t.Fatalf("query %d size %d, want Γ=50", j, g.QuerySize(j))
		}
		if g.QueryDistinct(j) > 50 || g.QueryDistinct(j) < 1 {
			t.Fatalf("query %d distinct %d out of range", j, g.QueryDistinct(j))
		}
	}
}

func TestRandomRegularOddN(t *testing.T) {
	d := RandomRegular{}
	if d.GammaFor(7) != 4 {
		t.Fatalf("GammaFor(7) = %d, want ⌈7/2⌉ = 4", d.GammaFor(7))
	}
	g, err := d.Build(7, 5, BuildOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.M(); j++ {
		if g.QuerySize(j) != 4 {
			t.Fatalf("query size %d, want 4", g.QuerySize(j))
		}
	}
}

func TestRandomRegularCustomGamma(t *testing.T) {
	d := RandomRegular{Gamma: 10}
	g, err := d.Build(1000, 5, BuildOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.M(); j++ {
		if g.QuerySize(j) != 10 {
			t.Fatalf("query size %d, want 10", g.QuerySize(j))
		}
	}
}

func TestRandomRegularDeterminismAcrossParallelism(t *testing.T) {
	d := RandomRegular{}
	a, err := d.Build(300, 60, BuildOptions{Seed: 42, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Build(300, 60, BuildOptions{Seed: 42, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !equalGraphs(a, b) {
		t.Fatal("build differs between 1 and 8 workers")
	}
	c, err := d.Build(300, 60, BuildOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if equalGraphs(a, c) {
		t.Fatal("different seeds produced identical graphs")
	}
}

func equalGraphs(a, b *graph.Bipartite) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ea, ma := queryRows(a)
	eb, mb := queryRows(b)
	return slices.EqualFunc(ea, eb, slices.Equal) && slices.EqualFunc(ma, mb, slices.Equal)
}

// queryRows collects every query's row through the graph's visitor.
func queryRows(g *graph.Bipartite) (ents, muls [][]int32) {
	g.ForEachQuery(func(_ int, e, mu []int32) error {
		ents = append(ents, slices.Clone(e))
		muls = append(muls, slices.Clone(mu))
		return nil
	})
	return ents, muls
}

func TestRandomRegularConcentration(t *testing.T) {
	// At moderate size the realized degrees must satisfy event R with a
	// small constant (Lemma 3).
	d := RandomRegular{}
	g, err := d.Build(2000, 400, BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.Concentration()
	if !rep.HoldsWithin(3) {
		t.Fatalf("concentration violated: %+v", rep)
	}
	if math.Abs(rep.ExpectedDegree-200) > 1e-9 {
		t.Fatalf("expected degree %v, want m/2 = 200", rep.ExpectedDegree)
	}
	// Expected distinct degree ≈ γ·m.
	if math.Abs(rep.ExpectedDistinct-graph.Gamma*400) > 1 {
		t.Fatalf("expected distinct %v, want ≈ %v", rep.ExpectedDistinct, graph.Gamma*400)
	}
}

func TestRandomRegularMultiEdgesExist(t *testing.T) {
	// With Γ = n/2 draws from [n], collisions are essentially certain.
	d := RandomRegular{}
	g, err := d.Build(1000, 20, BuildOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	for i := 0; i < g.N() && !multi; i++ {
		_, mul := g.EntryQueries(i)
		for _, mu := range mul {
			if mu > 1 {
				multi = true
				break
			}
		}
	}
	if !multi {
		t.Fatal("no multi-edges in a with-replacement design (astronomically unlikely)")
	}
}

func TestRandomRegularInvalidSizes(t *testing.T) {
	d := RandomRegular{}
	if _, err := d.Build(0, 5, BuildOptions{}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := d.Build(10, -1, BuildOptions{}); err == nil {
		t.Fatal("m=-1 accepted")
	}
	if g, err := d.Build(10, 0, BuildOptions{}); err != nil || g.M() != 0 {
		t.Fatalf("m=0 should give empty graph, got %v, %v", g, err)
	}
}

func TestBernoulliInclusionRate(t *testing.T) {
	d := Bernoulli{P: 0.3}
	g, err := d.Build(500, 200, BuildOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	pairs := float64(g.DistinctPairs())
	want := 0.3 * 500 * 200
	if math.Abs(pairs-want)/want > 0.05 {
		t.Fatalf("Bernoulli pairs = %v, want about %v", pairs, want)
	}
	// No multi-edges in a Bernoulli design.
	for i := 0; i < g.N(); i++ {
		_, mul := g.EntryQueries(i)
		for _, mu := range mul {
			if mu != 1 {
				t.Fatal("Bernoulli produced a multi-edge")
			}
		}
	}
}

func TestBernoulliDefaultP(t *testing.T) {
	d := Bernoulli{}
	g, err := d.Build(400, 100, BuildOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(g.DistinctPairs()) / (400 * 100)
	if math.Abs(rate-0.5) > 0.02 {
		t.Fatalf("default inclusion rate %v, want 0.5", rate)
	}
}

func TestBernoulliDeterminism(t *testing.T) {
	d := Bernoulli{P: 0.4}
	a, _ := d.Build(200, 50, BuildOptions{Seed: 5, Parallelism: 1})
	b, _ := d.Build(200, 50, BuildOptions{Seed: 5, Parallelism: 4})
	if !equalGraphs(a, b) {
		t.Fatal("Bernoulli build not deterministic across parallelism")
	}
}

func TestBernoulliRejectsP1(t *testing.T) {
	if _, err := (Bernoulli{P: 1}).Build(10, 10, BuildOptions{}); err == nil {
		t.Fatal("P=1 accepted")
	}
}

func TestConstantColumnExactDegrees(t *testing.T) {
	d := ConstantColumn{D: 7}
	g, err := d.Build(300, 40, BuildOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.N(); i++ {
		if g.DistinctDegree(i) != 7 || g.Degree(i) != 7 {
			t.Fatalf("entry %d degree %d/%d, want exactly 7", i, g.Degree(i), g.DistinctDegree(i))
		}
	}
}

func TestConstantColumnDefaultDegree(t *testing.T) {
	d := ConstantColumn{}
	if got, want := d.DFor(100), int(math.Round(graph.Gamma*100)); got != want {
		t.Fatalf("DFor(100) = %d, want %d", got, want)
	}
	if d.DFor(1) != 1 {
		t.Fatalf("DFor(1) = %d, want clamp to 1", d.DFor(1))
	}
}

func TestConstantColumnDeterminism(t *testing.T) {
	d := ConstantColumn{D: 5}
	a, _ := d.Build(150, 30, BuildOptions{Seed: 19, Parallelism: 1})
	b, _ := d.Build(150, 30, BuildOptions{Seed: 19, Parallelism: 6})
	if !equalGraphs(a, b) {
		t.Fatal("ConstantColumn build not deterministic across parallelism")
	}
}

func TestConstantColumnZeroQueries(t *testing.T) {
	g, err := ConstantColumn{D: 3}.Build(10, 0, BuildOptions{Seed: 1})
	if err != nil || g.M() != 0 {
		t.Fatalf("m=0: %v, %v", g, err)
	}
}

func TestFixedGoldenFig1(t *testing.T) {
	// The Fig. 1 bipartite graph of the paper (with one multi-edge).
	d := Fixed{Queries: [][]int{
		{0, 1, 2},
		{1, 3, 4},
		{0, 1, 4, 4},
		{2, 4},
		{0, 0, 5, 6},
	}}
	g, err := d.Build(7, 5, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.QuerySize(2) != 4 || g.QueryDistinct(2) != 3 {
		t.Fatal("multi-edge in query 2 lost")
	}
	if g.Degree(0) != 4 || g.DistinctDegree(0) != 3 {
		t.Fatalf("x0 degrees %d/%d", g.Degree(0), g.DistinctDegree(0))
	}
}

func TestFixedValidation(t *testing.T) {
	d := Fixed{Queries: [][]int{{0, 9}}}
	if _, err := d.Build(5, 1, BuildOptions{}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
	if _, err := d.Build(10, 2, BuildOptions{}); err == nil {
		t.Fatal("query count mismatch accepted")
	}
	if _, err := (Fixed{Queries: [][]int{{}}}).Build(-200, 1, BuildOptions{}); err == nil {
		t.Fatal("negative n accepted")
	}
}

// TestMultiplicityLimit: builders store multiplicities up to
// graph.MaxMultiplicity and refuse one more. With n = 1 every
// random-regular draw is entry 0, so Γ = 255 is the largest query that
// fits; a larger Γ is refused before its draws are allocated (2^40 of
// them would not fit in memory), and with m = 0 nothing is drawn at all.
func TestMultiplicityLimit(t *testing.T) {
	g, err := RandomRegular{Gamma: graph.MaxMultiplicity}.Build(1, 3, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if qs, mu := g.EntryQueries(0); len(qs) != 3 || mu[0] != 255 || mu[1] != 255 || mu[2] != 255 || g.QuerySize(2) != 255 {
		t.Fatalf("Γ=255, n=1: entry 0 in queries %v with multiplicities %v", qs, mu)
	}
	for _, gamma := range []int{graph.MaxMultiplicity + 1, 1 << 40} {
		_, err := RandomRegular{Gamma: gamma}.Build(1, 3, BuildOptions{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "more than 255 times, the multiplicity limit") {
			t.Fatalf("Γ=%d, n=1: error %v, want the multiplicity limit", gamma, err)
		}
	}
	if g, err := (RandomRegular{Gamma: 1 << 40}).Build(1, 0, BuildOptions{}); err != nil || g.M() != 0 {
		t.Fatalf("Γ=2^40, m=0: %v, %v", g, err)
	}

	// Fixed: query 1 lists entry 0 (a zeroed slice) 255, then 256 times.
	fixed := func(times int) Fixed { return Fixed{Queries: [][]int{{1}, make([]int, times)}} }
	g, err = fixed(graph.MaxMultiplicity).Build(2, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, mu := g.EntryQueries(0); len(mu) != 1 || mu[0] != 255 {
		t.Fatalf("Fixed entry 0 listed 255 times: multiplicities %v", mu)
	}
	want := "query 1 entry 0 has multiplicity 256 outside [1,255]"
	if _, err := fixed(graph.MaxMultiplicity+1).Build(2, 2, BuildOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Fixed entry 0 listed 256 times: error %v, want one containing %q", err, want)
	}
}

func TestQuickHalfEdgeIdentityAllDesigns(t *testing.T) {
	designs := []Design{RandomRegular{}, Bernoulli{P: 0.3}, ConstantColumn{D: 4}}
	f := func(seed uint64) bool {
		n := 20 + int(seed%80)
		m := 5 + int(seed%20)
		for _, d := range designs {
			g, err := d.Build(n, m, BuildOptions{Seed: seed})
			if err != nil {
				return false
			}
			var degSum, sizeSum int64
			for i := 0; i < g.N(); i++ {
				degSum += int64(g.Degree(i))
			}
			for j := 0; j < g.M(); j++ {
				sizeSum += int64(g.QuerySize(j))
			}
			if degSum != sizeSum || degSum != g.HalfEdges() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildsArePinned pins each design family's output at one seed to a
// fixed digest. A spec names its graph on every node and across restarts
// (the frontend rebuilds specs from its WAL's scheme records and campaign
// refs), so a build change that moves any incidence or multiplicity must
// fail here, however much faster it is.
func TestBuildsArePinned(t *testing.T) {
	for _, tc := range []struct {
		d    Design
		n, m int
		seed uint64
		want uint64
	}{
		{RandomRegular{}, 1000, 60, 42, 0x6558b58c86a68a29},
		{RandomRegular{Gamma: 7}, 1000, 60, 42, 0xaf636a04768de294},
		{Bernoulli{}, 1000, 60, 42, 0xaea0963893577212},
		{ConstantColumn{}, 1000, 60, 42, 0x23cc6f03953f5fc9},
		// The service's home scale, the design every benchmark workload
		// decodes against.
		{RandomRegular{}, 10000, 600, 1, 0x2b4425403fa34fba},
	} {
		g, err := tc.d.Build(tc.n, tc.m, BuildOptions{Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		g.ForEachQuery(func(_ int, ent, mul []int32) error {
			for p := range ent {
				binary.LittleEndian.PutUint32(buf[:4], uint32(ent[p]))
				binary.LittleEndian.PutUint32(buf[4:], uint32(mul[p]))
				h.Write(buf[:])
			}
			binary.LittleEndian.PutUint32(buf[:4], math.MaxUint32)
			h.Write(buf[:4])
			return nil
		})
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s%+v n=%d m=%d seed=%d: digest %#x, want %#x", tc.d.Name(), tc.d, tc.n, tc.m, tc.seed, got, tc.want)
		}
	}
}

// sortedQuery is the reference the counting build must match: query
// draws sorted, then collapsed into (distinct entry, multiplicity) runs.
func sortedQuery(draws []int32) (ent, mul []int32) {
	draws = slices.Clone(draws)
	slices.Sort(draws)
	for i := 0; i < len(draws); {
		k := i + 1
		for k < len(draws) && draws[k] == draws[i] {
			k++
		}
		ent = append(ent, draws[i])
		mul = append(mul, int32(k-i))
		i = k
	}
	return ent, mul
}

// regularDraws replays the draws of a RandomRegular build: query j takes
// gamma values in [0, n) from the stream seeded DeriveSeed(seed, j).
func regularDraws(n, m, gamma int, seed uint64) [][]int32 {
	out := make([][]int32, m)
	for j := range out {
		r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(seed, uint64(j))))
		out[j] = make([]int32, gamma)
		for t := range out[j] {
			out[j][t] = int32(r.Uint64n(uint64(n)))
		}
	}
	return out
}

// matchesSorted reports the first query of g that differs from the
// sort-based reference over draws, or -1 when every query matches.
func matchesSorted(g *graph.Bipartite, draws [][]int32) int {
	if g.M() != len(draws) {
		return 0
	}
	ents, muls := queryRows(g)
	for j, d := range draws {
		wantEnt, wantMul := sortedQuery(d)
		if !slices.Equal(ents[j], wantEnt) || !slices.Equal(muls[j], wantMul) {
			return j
		}
	}
	return -1
}

func TestCountedBuildMatchesSortReference(t *testing.T) {
	type shape struct{ n, m, gamma int }
	shapes := []shape{
		{1, 5, 1}, {1, 3, 9}, {63, 10, 32}, {64, 10, 32}, {65, 10, 33},
		{64, 4, 1}, {65, 4, 4 * 65}, {200, 0, 100}, {1000, 20, 1},
		{1000, 20, 4000}, {129, 17, 7},
	}
	r := rng.NewRandSeeded(99)
	for len(shapes) < 60 {
		n := 1 + r.Intn(3000)
		shapes = append(shapes, shape{n, r.Intn(40), 1 + r.Intn(2*n)})
	}
	for _, sh := range shapes {
		seed := r.Uint64()
		draws := regularDraws(sh.n, sh.m, sh.gamma, seed)
		for _, par := range []int{1, 8} {
			g, err := RandomRegular{Gamma: sh.gamma}.Build(sh.n, sh.m, BuildOptions{Seed: seed, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if j := matchesSorted(g, draws); j >= 0 {
				t.Fatalf("n=%d m=%d Γ=%d seed=%d par=%d: query %d differs from the sorted reference", sh.n, sh.m, sh.gamma, seed, par, j)
			}
		}
	}
}

func TestFixedMatchesSortReference(t *testing.T) {
	r := rng.NewRandSeeded(7)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(200)
		// Entries from a narrow window make every query duplicate-heavy.
		span := 1 + r.Intn(min(n, 8))
		queries := make([][]int, r.Intn(25))
		draws := make([][]int32, len(queries))
		for j := range queries {
			base := r.Intn(n - span + 1)
			for range r.Intn(30) {
				e := base + r.Intn(span)
				queries[j] = append(queries[j], e)
				draws[j] = append(draws[j], int32(e))
			}
		}
		for _, par := range []int{1, 8} {
			g, err := Fixed{Queries: queries}.Build(n, len(queries), BuildOptions{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if j := matchesSorted(g, draws); j >= 0 {
				t.Fatalf("trial %d par=%d: query %d = %v differs from the sorted reference", trial, par, j, queries[j])
			}
		}
	}
}

// TestHomeScaleBuildFootprint guards the build's memory: the home-scale
// design (n = 10⁴, m = 600) allocates its entry side once, at its final
// size of a multiplicity byte per pair and a bit per (entry, query) cell,
// plus O(n + m) scratch — never a query index per pair, nor a query-side
// copy next to it.
func TestHomeScaleBuildFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := RandomRegular{}.Build(10000, 600, BuildOptions{Seed: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	size := g.DistinctPairs() + int64(g.N())*int64((g.M()+63)/64)*8
	limit := uint64(1.1*float64(size)) + 64*uint64(g.N()) + 64*uint64(g.M())
	t.Logf("building the home-scale design allocated %d bytes, limit %d", alloc, limit)
	if alloc > limit {
		t.Fatalf("building the home-scale design allocated %d bytes, limit %d (pairs and bitmap: %d)", alloc, limit, size)
	}
}
