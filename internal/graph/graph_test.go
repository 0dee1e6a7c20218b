package graph

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// tiny builds the Fig. 1 example of the paper by hand:
// σ = (1,1,0,0,1,0,0), five queries. We only need the graph structure
// here; query results are exercised in the query package.
func tiny(t *testing.T) *Bipartite {
	t.Helper()
	// Query 0: {x0, x1, x2}, query 1: {x1, x3, x4}, query 2: {x0, x1, x4, x4}
	// (x4 twice: a multi-edge), query 3: {x2, x4}, query 4: {x5, x6, x0, x0}.
	qptr := []int64{0, 3, 6, 9, 11, 14}
	qent := []int32{0, 1, 2 /**/, 1, 3, 4 /**/, 0, 1, 4 /**/, 2, 4 /**/, 0, 5, 6}
	qmul := []int32{1, 1, 1 /**/, 1, 1, 1 /**/, 1, 1, 2 /**/, 1, 1 /**/, 2, 1, 1}
	g, err := New(7, qptr, qent, qmul)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

func TestNewSizes(t *testing.T) {
	g := tiny(t)
	if g.N() != 7 || g.M() != 5 {
		t.Fatalf("N,M = %d,%d want 7,5", g.N(), g.M())
	}
	if g.HalfEdges() != 3+3+4+2+4 {
		t.Fatalf("HalfEdges = %d", g.HalfEdges())
	}
	if g.DistinctPairs() != 14 {
		t.Fatalf("DistinctPairs = %d", g.DistinctPairs())
	}
}

// queryRows collects every query's row through ForEachQuery.
func queryRows(g *Bipartite) (ents, muls [][]int32) {
	g.ForEachQuery(func(_ int, e, mu []int32) error {
		ents = append(ents, slices.Clone(e))
		muls = append(muls, slices.Clone(mu))
		return nil
	})
	return ents, muls
}

func TestQueryAccessors(t *testing.T) {
	g := tiny(t)
	ents, muls := queryRows(g)
	if ent := ents[2]; len(ent) != 3 || ent[0] != 0 || ent[1] != 1 || ent[2] != 4 {
		t.Fatalf("query 2 entries = %v", ent)
	}
	if muls[2][2] != 2 {
		t.Fatalf("query 2 mults = %v, want multi-edge on x4", muls[2])
	}
	if g.QuerySize(2) != 4 {
		t.Fatalf("QuerySize(2) = %d, want 4", g.QuerySize(2))
	}
	if g.QueryDistinct(2) != 3 {
		t.Fatalf("QueryDistinct(2) = %d, want 3", g.QueryDistinct(2))
	}
	if g.QuerySize(4) != 4 || g.QueryDistinct(4) != 3 {
		t.Fatalf("query 4 size/distinct = %d/%d", g.QuerySize(4), g.QueryDistinct(4))
	}
}

func TestEntrySideDerivation(t *testing.T) {
	g := tiny(t)
	// x0 appears in queries 0, 2 (once each) and 4 (twice).
	qs, mu := g.EntryQueries(0)
	if len(qs) != 3 || qs[0] != 0 || qs[1] != 2 || qs[2] != 4 {
		t.Fatalf("EntryQueries(0) = %v", qs)
	}
	if mu[0] != 1 || mu[1] != 1 || mu[2] != 2 {
		t.Fatalf("EntryQueries(0) mults = %v", mu)
	}
	if g.Degree(0) != 4 {
		t.Fatalf("Degree(0) = %d, want 4", g.Degree(0))
	}
	if g.DistinctDegree(0) != 3 {
		t.Fatalf("DistinctDegree(0) = %d, want 3", g.DistinctDegree(0))
	}
	// x4: queries 1 (once), 2 (twice), 3 (once).
	if g.Degree(4) != 4 || g.DistinctDegree(4) != 3 {
		t.Fatalf("x4 degrees = %d/%d", g.Degree(4), g.DistinctDegree(4))
	}
	// x5, x6 appear only in query 4.
	if g.Degree(5) != 1 || g.DistinctDegree(6) != 1 {
		t.Fatal("x5/x6 degrees wrong")
	}
}

func TestDegreeIdentities(t *testing.T) {
	g := tiny(t)
	var sumDeg, sumSize int64
	for i := 0; i < g.N(); i++ {
		sumDeg += int64(g.Degree(i))
	}
	for j := 0; j < g.M(); j++ {
		sumSize += int64(g.QuerySize(j))
	}
	if sumDeg != sumSize || sumDeg != g.HalfEdges() {
		t.Fatalf("half-edge identity broken: Σdeg=%d Σsize=%d half=%d", sumDeg, sumSize, g.HalfEdges())
	}
}

func TestStats(t *testing.T) {
	g := tiny(t)
	st := g.Stats()
	if st.MinDegree != 1 || st.MaxDegree != 4 {
		t.Fatalf("degree range = [%d,%d], want [1,4]", st.MinDegree, st.MaxDegree)
	}
	if st.MaxDistinctDegree != 3 { // x0 in queries 0,2,4 (x1 ties)
		t.Fatalf("MaxDistinctDegree = %d", st.MaxDistinctDegree)
	}
	if st.MeanDegree <= 0 || st.MeanDistinctDegree <= 0 {
		t.Fatal("means must be positive")
	}
}

func TestStatsEmpty(t *testing.T) {
	g, err := New(0, []int64{0}, nil, nil)
	if err != nil {
		t.Fatalf("New empty: %v", err)
	}
	st := g.Stats()
	if st.MaxDegree != 0 {
		t.Fatal("empty graph stats should be zero")
	}
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		n    int
		qptr []int64
		qent []int32
		qmul []int32
	}{
		{"negative n", -1, []int64{0}, nil, nil},
		{"empty qptr", 3, nil, nil, nil},
		{"qptr not starting at 0", 3, []int64{1, 2}, []int32{0}, []int32{1}},
		{"length mismatch", 3, []int64{0, 2}, []int32{0}, []int32{1}},
		{"decreasing qptr", 3, []int64{0, 1, 0}, []int32{0}, []int32{1}},
		{"entry out of range", 3, []int64{0, 1}, []int32{3}, []int32{1}},
		{"negative entry", 3, []int64{0, 1}, []int32{-1}, []int32{1}},
		{"not increasing", 3, []int64{0, 2}, []int32{1, 1}, []int32{1, 1}},
		{"zero multiplicity", 3, []int64{0, 1}, []int32{0}, []int32{0}},
	}
	for _, tc := range cases {
		if _, err := New(tc.n, tc.qptr, tc.qent, tc.qmul); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestStatsDistinctWeight(t *testing.T) {
	// x1 is in queries 0, 1, 2 → distinct degree 3; verify against x1's view.
	g := tiny(t)
	qs, _ := g.EntryQueries(1)
	if len(qs) != 3 {
		t.Fatalf("x1 distinct queries = %d, want 3", len(qs))
	}
}

// TestForEachQueryReproducesRows: the visitor streams back exactly the
// query-side CSR a graph was built from, including a design large enough
// (360 000 pairs) to span two visitor blocks.
func TestForEachQueryReproducesRows(t *testing.T) {
	for _, tc := range []struct{ n, m, per int }{
		{1, 3, 1}, {7, 1, 7}, {500, 40, 60}, {3000, 300, 1200},
	} {
		qptr, qent, qmul := buildRandomCSR(tc.n, tc.m, tc.per, uint64(tc.n))
		g, err := New(tc.n, qptr, qent, qmul)
		if err != nil {
			t.Fatal(err)
		}
		next := 0
		err = g.ForEachQuery(func(j int, ents, muls []int32) error {
			if j != next {
				t.Fatalf("n=%d: visited query %d, want %d", tc.n, j, next)
			}
			next++
			lo, hi := qptr[j], qptr[j+1]
			if !slices.Equal(ents, qent[lo:hi]) || !slices.Equal(muls, qmul[lo:hi]) {
				t.Fatalf("n=%d m=%d: query %d row differs from the CSR it was built from", tc.n, tc.m, j)
			}
			return nil
		})
		if err != nil || next != tc.m {
			t.Fatalf("n=%d: visited %d of %d queries, err %v", tc.n, next, tc.m, err)
		}
	}
}

func TestForEachQueryStopsAtError(t *testing.T) {
	g := tiny(t)
	stop := errors.New("stop")
	calls := 0
	err := g.ForEachQuery(func(j int, _, _ []int32) error {
		calls++
		if j == 1 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 2 {
		t.Fatalf("err %v after %d calls, want stop after 2", err, calls)
	}
}

func TestFromQueryRowsRejects(t *testing.T) {
	fail := errors.New("row source failed")
	calls := 0
	for _, tc := range []struct {
		name string
		row  RowFunc
	}{
		{"source error", func(j int) ([]int32, []int32, error) { return nil, nil, fail }},
		{"length mismatch", func(j int) ([]int32, []int32, error) { return []int32{0, 1}, []int32{1}, nil }},
		{"entry out of range", func(j int) ([]int32, []int32, error) { return []int32{3}, []int32{1}, nil }},
		{"not increasing", func(j int) ([]int32, []int32, error) { return []int32{1, 1}, []int32{1, 1}, nil }},
		{"zero multiplicity", func(j int) ([]int32, []int32, error) { return []int32{0}, []int32{0}, nil }},
		{"row changes between passes", func(j int) ([]int32, []int32, error) {
			calls++
			if calls > 2 {
				return []int32{0, 1}, []int32{1, 1}, nil
			}
			return []int32{0}, []int32{1}, nil
		}},
	} {
		row := tc.row
		if _, err := FromQueryRows(3, 2, 1, func() RowFunc { return row }); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
	if _, err := FromQueryRows(-1, 0, 1, nil); err == nil {
		t.Fatal("negative n accepted")
	}
}

// TestFromQueryRowsNoQueries: with m = 0 there is no row to ask for, so
// newRow (which may allocate per-worker scratch sized by the design) is
// never called.
func TestFromQueryRowsNoQueries(t *testing.T) {
	g, err := FromQueryRows(3, 0, 4, nil)
	if err != nil || g.N() != 3 || g.M() != 0 || g.DistinctPairs() != 0 || g.DistinctDegree(2) != 0 {
		t.Fatalf("m=0: %v, %v", g, err)
	}
}

// TestMultiplicityLimit: a multiplicity of MaxMultiplicity is stored and
// read back, one more is refused by New and by FromQueryRows with an
// error naming the query, the entry, the value and the limit.
func TestMultiplicityLimit(t *testing.T) {
	qptr := []int64{0, 1, 3}
	qent := []int32{2, 0, 1}
	for _, mu := range []int32{MaxMultiplicity, MaxMultiplicity + 1} {
		qmul := []int32{1, 1, mu}
		g, errNew := New(3, qptr, qent, qmul)
		_, errRows := FromQueryRows(3, 2, 2, func() RowFunc {
			return func(j int) ([]int32, []int32, error) {
				return qent[qptr[j]:qptr[j+1]], qmul[qptr[j]:qptr[j+1]], nil
			}
		})
		if mu == MaxMultiplicity {
			if errNew != nil || errRows != nil {
				t.Fatalf("multiplicity %d refused: %v, %v", mu, errNew, errRows)
			}
			if _, muls := g.EntryQueries(1); len(muls) != 1 || muls[0] != MaxMultiplicity {
				t.Fatalf("entry 1 multiplicities %v, want [%d]", muls, MaxMultiplicity)
			}
			if _, muls := queryRows(g); muls[1][1] != MaxMultiplicity || g.QuerySize(1) != MaxMultiplicity+1 || g.Degree(1) != MaxMultiplicity {
				t.Fatalf("query 1 multiplicities %v, size %d, degree(1) %d", muls[1], g.QuerySize(1), g.Degree(1))
			}
			continue
		}
		want := "query 1 entry 1 has multiplicity 256 outside [1,255]"
		for _, err := range []error{errNew, errRows} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("multiplicity %d: error %v, want one containing %q", mu, err, want)
			}
		}
	}
}

func TestFromEntrySide(t *testing.T) {
	// The transpose of tiny's query side, written per entry.
	eptr := []int64{0, 3, 6, 8, 9, 12, 13, 14}
	eqry := []int32{0, 2, 4 /**/, 0, 1, 2 /**/, 0, 3 /**/, 1 /**/, 1, 2, 3 /**/, 4 /**/, 4}
	emul := []uint8{1, 1, 2 /**/, 1, 1, 1 /**/, 1, 1 /**/, 1 /**/, 1, 2, 1 /**/, 1 /**/, 1}
	g, err := FromEntrySide(5, eptr, eqry, emul)
	if err != nil {
		t.Fatal(err)
	}
	ents, muls := queryRows(g)
	we, wm := queryRows(tiny(t))
	if !slices.EqualFunc(ents, we, slices.Equal) || !slices.EqualFunc(muls, wm, slices.Equal) {
		t.Fatalf("entry-side build rows %v %v, want %v %v", ents, muls, we, wm)
	}
	if g.HalfEdges() != 16 || g.QuerySize(2) != 4 || g.QueryDistinct(4) != 3 {
		t.Fatalf("query counts: half %d size(2) %d distinct(4) %d", g.HalfEdges(), g.QuerySize(2), g.QueryDistinct(4))
	}
	for _, tc := range []struct {
		name string
		m    int
		eptr []int64
		eqry []int32
		emul []uint8
	}{
		{"empty eptr", 2, nil, nil, nil},
		{"eptr not starting at 0", 2, []int64{1, 1}, nil, nil},
		{"length mismatch", 2, []int64{0, 2}, []int32{0}, []uint8{1}},
		{"decreasing eptr", 2, []int64{0, 1, 0}, []int32{0}, []uint8{1}},
		{"query out of range", 2, []int64{0, 1}, []int32{2}, []uint8{1}},
		{"not increasing", 2, []int64{0, 2}, []int32{1, 1}, []uint8{1, 1}},
		{"zero multiplicity", 2, []int64{0, 1}, []int32{0}, []uint8{0}},
		{"negative m", -1, []int64{0}, nil, nil},
	} {
		if _, err := FromEntrySide(tc.m, tc.eptr, tc.eqry, tc.emul); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}
