package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pooleddata/internal/rng"
)

// incidence is a graph written out as a dense n×m multiplicity matrix,
// the naive reference the two layouts are checked against.
type incidence struct {
	n, m int
	a    [][]int32 // a[i][j]: multiplicity of entry i in query j, 0 if absent
}

// randomIncidence draws a random incidence: each query keeps each entry
// with its own probability, drawn from sparse to dense, with
// multiplicities mostly 1–3 and now and then MaxMultiplicity. The last
// two entries are never drawn, so some rows are empty.
func randomIncidence(n, m int, seed uint64) incidence {
	r := rng.NewRandSeeded(seed)
	a := make([][]int32, n)
	for i := range a {
		a[i] = make([]int32, m)
	}
	for j := 0; j < m; j++ {
		p := []float64{0, 0.02, 0.3, 0.9}[r.Intn(4)]
		for i := 0; i < n-2; i++ {
			if r.Float64() >= p {
				continue
			}
			a[i][j] = int32(1 + r.Intn(3))
			if r.Intn(50) == 0 {
				a[i][j] = MaxMultiplicity
			}
		}
	}
	return incidence{n, m, a}
}

func (in incidence) rows() func() RowFunc {
	return func() RowFunc {
		ents := make([]int32, in.n)
		muls := make([]int32, in.n)
		return func(j int) ([]int32, []int32, error) {
			d := 0
			for i := range in.a {
				if mu := in.a[i][j]; mu > 0 {
					ents[d], muls[d] = int32(i), mu
					d++
				}
			}
			return ents[:d], muls[:d], nil
		}
	}
}

// entrySide returns the incidence's entry-side arrays, as FromEntrySide
// takes them.
func (in incidence) entrySide() (eptr []int64, eqry []int32, emul []uint8) {
	eptr = make([]int64, in.n+1)
	for i, row := range in.a {
		for j, mu := range row {
			if mu > 0 {
				eqry = append(eqry, int32(j))
				emul = append(emul, uint8(mu))
			}
		}
		eptr[i+1] = int64(len(eqry))
	}
	return eptr, eqry, emul
}

// bothLayouts builds the incidence with an index array and with bits,
// from query rows with the given number of fill workers and from the
// entry side, and returns the four graphs.
func bothLayouts(t *testing.T, in incidence, workers int) map[string]*Bipartite {
	t.Helper()
	never := func(int, int, int64) bool { return false }
	always := func(int, int, int64) bool { return true }
	gs := map[string]*Bipartite{}
	for name, rule := range map[string]func(int, int, int64) bool{"index": never, "bits": always} {
		g, err := fromQueryRows(in.n, in.m, workers, in.rows(), rule)
		if err != nil {
			t.Fatal(err)
		}
		gs["rows/"+name] = g
		eptr, eqry, emul := in.entrySide()
		if g, err = fromEntrySide(in.m, eptr, eqry, emul, rule); err != nil {
			t.Fatal(err)
		}
		gs["entries/"+name] = g
	}
	for name, g := range gs {
		if wantBits := strings.HasSuffix(name, "bits"); in.m > 0 && (g.cells != nil) != wantBits {
			t.Fatalf("%s: bit-stored %v", name, g.cells != nil)
		}
	}
	return gs
}

// TestLayoutsAgree checks every read of a graph, in both layouts and
// built both ways, against the dense reference: m = 0, m below 64, m on
// and off a multiple of 64, empty rows, multiplicity 255, and fills on
// 1, 2, 3 and 7 workers. Psi's worker split needs at least 2^14 pairs,
// which the largest case has.
func TestLayoutsAgree(t *testing.T) {
	sizes := [][2]int{{5, 0}, {3, 1}, {40, 63}, {40, 64}, {70, 65}, {33, 130}, {64, 200}, {300, 460}}
	for ci, sz := range sizes {
		in := randomIncidence(sz[0], sz[1], uint64(ci+1))
		for _, workers := range []int{1, 2, 3, 7} {
			for name, g := range bothLayouts(t, in, workers) {
				t.Run(fmt.Sprintf("n=%d,m=%d,w=%d,%s", in.n, in.m, workers, name), func(t *testing.T) {
					checkAgainstDense(t, g, in, uint64(ci))
				})
			}
		}
	}
}

func checkAgainstDense(t *testing.T, g *Bipartite, in incidence, seed uint64) {
	n, m := in.n, in.m
	if g.N() != n || g.M() != m {
		t.Fatalf("sizes %d×%d", g.N(), g.M())
	}
	r := rng.NewRandSeeded(seed)
	y := make([]int64, m)
	for j := range y {
		// Negative and large values too: Psi must be exact on any int64.
		y[j] = int64(r.Uint64()>>20) - 1<<43
	}
	type psiRun struct {
		name string
		lo   int
		sums []int64 // sums[k] is Ψ of entry lo+k
	}
	var runs []psiRun
	for workers := 1; workers <= 3; workers++ {
		sums := make([]int64, n)
		g.Psi(y, sums, workers)
		runs = append(runs, psiRun{fmt.Sprintf("Psi workers=%d", workers), 0, sums})
	}
	if g.cells != nil {
		// A worker's range that starts past entry 0, on every size.
		sums := make([]int64, n-n/3)
		g.psiCells(y, sums, n/3)
		runs = append(runs, psiRun{fmt.Sprintf("psiCells from entry %d", n/3), n / 3, sums})
	}
	ptr, rowsQs, rowsMu := g.Rows(nil)
	var pairs int64
	for i, row := range in.a {
		var wantQs []int32
		var wantMu []uint8
		var psi, deg int64
		for j, mu := range row {
			if mu > 0 {
				wantQs = append(wantQs, int32(j))
				wantMu = append(wantMu, uint8(mu))
				psi += y[j]
				deg += int64(mu)
			}
		}
		pairs += int64(len(wantQs))
		qs, mu := g.Row(i, make([]int32, 3))
		if !slices.Equal(qs, wantQs) || !slices.Equal(mu, wantMu) {
			t.Fatalf("Row(%d) = %v %v, want %v %v", i, qs, mu, wantQs, wantMu)
		}
		if qs, mu := g.EntryQueries(i); !slices.Equal(qs, wantQs) || !slices.Equal(mu, wantMu) {
			t.Fatalf("EntryQueries(%d) = %v %v, want %v %v", i, qs, mu, wantQs, wantMu)
		}
		if g.Degree(i) != int(deg) || g.DistinctDegree(i) != len(wantQs) {
			t.Fatalf("entry %d degrees %d/%d, want %d/%d", i, g.Degree(i), g.DistinctDegree(i), deg, len(wantQs))
		}
		if qs, mu := rowsQs[ptr[i]:ptr[i+1]], rowsMu[ptr[i]:ptr[i+1]]; !slices.Equal(qs, wantQs) || !slices.Equal(mu, wantMu) {
			t.Fatalf("Rows entry %d = %v %v, want %v %v", i, qs, mu, wantQs, wantMu)
		}
		for _, run := range runs {
			if i >= run.lo && run.sums[i-run.lo] != psi {
				t.Fatalf("%s: entry %d sum %d, want %d", run.name, i, run.sums[i-run.lo], psi)
			}
		}
		for _, sign := range []int64{1, -1} {
			dst := slices.Clone(y)
			g.AddRow(i, dst, sign)
			for j := range dst {
				if dst[j] != y[j]+sign*int64(row[j]) {
					t.Fatalf("AddRow(%d, sign %d) query %d: %d, want %d", i, sign, j, dst[j], y[j]+sign*int64(row[j]))
				}
			}
		}
	}
	if g.DistinctPairs() != pairs {
		t.Fatalf("DistinctPairs %d, want %d", g.DistinctPairs(), pairs)
	}
	next := 0
	err := g.ForEachQuery(func(j int, ents, muls []int32) error {
		if j != next {
			return fmt.Errorf("query %d visited, want %d", j, next)
		}
		next++
		var wantE, wantM []int32
		var size int64
		for i := range in.a {
			if mu := in.a[i][j]; mu > 0 {
				wantE = append(wantE, int32(i))
				wantM = append(wantM, mu)
				size += int64(mu)
			}
		}
		if !slices.Equal(ents, wantE) || !slices.Equal(muls, wantM) {
			return fmt.Errorf("query %d row %v %v, want %v %v", j, ents, muls, wantE, wantM)
		}
		if g.QueryDistinct(j) != len(wantE) || int64(g.QuerySize(j)) != size {
			return fmt.Errorf("query %d counts %d/%d, want %d/%d", j, g.QueryDistinct(j), g.QuerySize(j), len(wantE), size)
		}
		return nil
	})
	if err == nil && next != m {
		err = fmt.Errorf("walk stopped at %d, want %d", next, m)
	}
	if err != nil {
		t.Fatalf("ForEachQuery: %v", err)
	}
}

// TestBinaryRoundTrip: a graph built from query rows and one built from
// the entry side write the same binary form, which parses back, in the
// layout the size rule picks, to a graph that agrees with the dense
// reference. The shapes are those of TestLayoutsAgree, plus n = 0 and 1
// and a sparse incidence, so both layouts are written and parsed.
func TestBinaryRoundTrip(t *testing.T) {
	var cases []incidence
	for ci, sz := range [][2]int{{0, 0}, {0, 3}, {1, 0}, {1, 1}, {5, 0}, {3, 1}, {40, 63}, {40, 64}, {70, 65}, {33, 130}, {64, 200}, {300, 460}} {
		cases = append(cases, randomIncidence(sz[0], sz[1], uint64(ci+1)))
	}
	sparse := incidence{200, 70, make([][]int32, 200)}
	for i := range sparse.a {
		sparse.a[i] = make([]int32, sparse.m)
		sparse.a[i][(i*13)%sparse.m] = int32(1 + i%3)
	}
	cases = append(cases, sparse)
	var parsed [2]int // index-stored, bit-stored
	for ci, in := range cases {
		fromRows, err := FromQueryRows(in.n, in.m, 2, in.rows())
		if err != nil {
			t.Fatal(err)
		}
		eptr, eqry, emul := in.entrySide()
		fromEntries, err := FromEntrySide(in.m, eptr, eqry, emul)
		if err != nil {
			t.Fatal(err)
		}
		form := fromRows.AppendBinary(nil)
		if other := fromEntries.AppendBinary(nil); !bytes.Equal(other, form) {
			t.Fatalf("n=%d m=%d: built from rows the form is %x, from the entry side %x", in.n, in.m, form, other)
		}
		g, err := ParseBinary(form)
		if err != nil {
			t.Fatalf("n=%d m=%d: %v", in.n, in.m, err)
		}
		if (g.cells != nil) != bitStored(g.n, g.m, g.DistinctPairs()) {
			t.Fatalf("n=%d m=%d: parsed bit-stored %v", in.n, in.m, g.cells != nil)
		}
		if g.cells != nil {
			parsed[1]++
		} else {
			parsed[0]++
		}
		checkAgainstDense(t, g, in, uint64(ci))
	}
	if parsed[0] == 0 || parsed[1] == 0 {
		t.Fatalf("parsed (index, bits) = %v, want both layouts", parsed)
	}
}

// TestLayoutChoice: the paper's dense design is stored as bits and a
// sparse one keeps its index array, by the one size rule.
func TestLayoutChoice(t *testing.T) {
	for _, tc := range []struct {
		n, m  int
		pairs int64
		bits  bool
	}{
		{10_000, 600, 2_359_926, true}, // the home scale: 0.8 MB of bits against 9.44 MB of indices
		{100_000, 2000, 13_999, false}, // seven entries per query
		{1000, 64, 2000, false},        // one cell in 32 set: equal sizes keep the array
		{1000, 64, 2001, true},
		{10, 0, 0, false},
		{0, 10, 0, false},
	} {
		if got := bitStored(tc.n, tc.m, tc.pairs); got != tc.bits {
			t.Errorf("bitStored(%d, %d, %d) = %v, want %v", tc.n, tc.m, tc.pairs, got, tc.bits)
		}
	}
}

// TestPsiScratchIsBounded: Psi on a bit-stored graph allocates at most
// one 16 KB table per worker, whatever m is. A design of two entries and
// 2^16 queries holds 16 KB of bits; tables for all of its 1024 blocks at
// once would take 16 MB.
func TestPsiScratchIsBounded(t *testing.T) {
	const n, m = 2, 1 << 16
	g, err := FromQueryRows(n, m, 1, func() RowFunc {
		return func(j int) ([]int32, []int32, error) {
			return []int32{0, 1}, []int32{1, int32(1 + j%3)}, nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.cells == nil {
		t.Fatal("two entries in every query: want a bit-stored graph")
	}
	y := make([]int64, m)
	var want int64
	for j := range y {
		y[j] = int64(j%7) - 3
		want += y[j]
	}
	psi := make([]int64, n)
	const workers = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g.Psi(y, psi, workers)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(workers*16<<10+4<<10); got > limit {
		t.Errorf("Psi allocated %d bytes, want at most %d", got, limit)
	}
	for i, s := range psi {
		if s != want {
			t.Fatalf("entry %d sum %d, want %d", i, s, want)
		}
	}
}
