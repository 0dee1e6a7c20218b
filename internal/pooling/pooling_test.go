package pooling

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"pooleddata/internal/graph"
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
	for j := 0; j < a.M(); j++ {
		ea, ma := a.QueryEntries(j)
		eb, mb := b.QueryEntries(j)
		if len(ea) != len(eb) {
			return false
		}
		for p := range ea {
			if ea[p] != eb[p] || ma[p] != mb[p] {
				return false
			}
		}
	}
	return true
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
	for j := 0; j < g.M() && !multi; j++ {
		_, mul := g.QueryEntries(j)
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
	for j := 0; j < g.M(); j++ {
		_, mul := g.QueryEntries(j)
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
// (the frontend rebuilds specs from snapshots and WAL refs), so a build
// change that moves any incidence or multiplicity must fail here, however
// much faster it is.
func TestBuildsArePinned(t *testing.T) {
	for _, tc := range []struct {
		d    Design
		want uint64
	}{
		{RandomRegular{}, 0x6558b58c86a68a29},
		{RandomRegular{Gamma: 7}, 0xaf636a04768de294},
		{Bernoulli{}, 0xaea0963893577212},
		{ConstantColumn{}, 0x23cc6f03953f5fc9},
	} {
		g, err := tc.d.Build(1000, 60, BuildOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for j := 0; j < g.M(); j++ {
			ent, mul := g.QueryEntries(j)
			for p := range ent {
				binary.LittleEndian.PutUint32(buf[:4], uint32(ent[p]))
				binary.LittleEndian.PutUint32(buf[4:], uint32(mul[p]))
				h.Write(buf[:])
			}
			binary.LittleEndian.PutUint32(buf[:4], math.MaxUint32)
			h.Write(buf[:4])
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%s%+v: digest %#x, want %#x", tc.d.Name(), tc.d, got, tc.want)
		}
	}
}
