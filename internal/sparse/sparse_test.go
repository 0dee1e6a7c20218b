package sparse

import (
	"testing"
	"testing/quick"

	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
)

func smallCSR(t *testing.T) *CSR {
	t.Helper()
	// 3x4 matrix:
	//   [1 0 2 0]
	//   [0 0 0 0]
	//   [3 1 0 1]
	m, err := NewCSR(3, 4,
		[]int64{0, 2, 2, 5},
		[]int32{0, 2, 0, 1, 3},
		[]int32{1, 2, 3, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		ptr        []int64
		col, val   []int32
	}{
		{"negative shape", -1, 2, []int64{0}, nil, nil},
		{"short ptr", 2, 2, []int64{0, 1}, []int32{0}, []int32{1}},
		{"ptr start", 1, 2, []int64{1, 1}, nil, nil},
		{"nnz mismatch", 1, 2, []int64{0, 2}, []int32{0}, []int32{1}},
		{"decreasing ptr", 2, 2, []int64{0, 1, 0}, []int32{0}, []int32{1}},
		{"col out of range", 1, 2, []int64{0, 1}, []int32{2}, []int32{1}},
	}
	for _, tc := range cases {
		if _, err := NewCSR(tc.rows, tc.cols, tc.ptr, tc.col, tc.val); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

func TestMulVecSmall(t *testing.T) {
	m := smallCSR(t)
	got := m.MulVec([]int64{1, 2, 3, 4}, nil)
	want := []int64{7, 0, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestMulVecIntoProvided(t *testing.T) {
	m := smallCSR(t)
	out := make([]int64, 3)
	got := m.MulVec([]int64{1, 0, 0, 0}, out)
	if &got[0] != &out[0] {
		t.Fatal("MulVec did not reuse provided buffer")
	}
	if out[0] != 1 || out[2] != 3 {
		t.Fatalf("MulVec into buffer = %v", out)
	}
}

func TestMulVecPanicsOnBadLengths(t *testing.T) {
	m := smallCSR(t)
	for _, f := range []func(){
		func() { m.MulVec(make([]int64, 3), nil) },
		func() { m.MulVec(make([]int64, 4), make([]int64, 2)) },
		func() { m.MulVecParallel(make([]int64, 5), nil, 2) },
		func() { m.MulVecFloat(make([]float64, 1), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on length mismatch")
				}
			}()
			f()
		}()
	}
}

func TestRowSums(t *testing.T) {
	m := smallCSR(t)
	sums := m.RowSums(2)
	want := []int64{3, 0, 5}
	for i := range want {
		if sums[i] != want[i] {
			t.Fatalf("RowSums = %v, want %v", sums, want)
		}
	}
}

func TestMulVecFloat(t *testing.T) {
	m := smallCSR(t)
	got := m.MulVecFloat([]float64{0.5, 1, 1.5, 2}, nil)
	want := []float64{3.5, 0, 4.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MulVecFloat = %v, want %v", got, want)
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := smallCSR(t)
	tt := m.Transpose().Transpose()
	if tt.Rows() != m.Rows() || tt.Cols() != m.Cols() || tt.NNZ() != m.NNZ() {
		t.Fatal("transpose changed shape")
	}
	x := []int64{1, 2, 3, 4}
	a := m.MulVec(x, nil)
	b := tt.MulVec(x, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("double transpose changed the operator")
		}
	}
}

func TestTransposeAgainstQuerySide(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(200, 50, pooling.BuildOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The entry-indexed multiplicity matrix A, straight off the graph.
	ptr := make([]int64, g.N()+1)
	var col, val []int32
	for i := 0; i < g.N(); i++ {
		qs, mu := g.EntryQueries(i)
		col = append(col, qs...)
		val = append(val, mu...)
		ptr[i+1] = int64(len(col))
	}
	entry, err := NewCSR(g.N(), g.M(), ptr, col, val)
	if err != nil {
		t.Fatal(err)
	}
	a := entry.Transpose()
	b := QueryMultiplicity(g)
	if a.Rows() != b.Rows() || a.NNZ() != b.NNZ() {
		t.Fatal("transpose of entry side differs from query side in shape")
	}
	x := make([]int64, a.Cols())
	r := rng.NewRandSeeded(1)
	for i := range x {
		x[i] = int64(r.Intn(5))
	}
	av := a.MulVec(x, nil)
	bv := b.MulVec(x, nil)
	for i := range av {
		if av[i] != bv[i] {
			t.Fatalf("row %d: transpose %d vs query-side %d", i, av[i], bv[i])
		}
	}
}

func TestEntryAdjacencyIsZeroOne(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(300, 40, pooling.BuildOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := EntryAdjacency(g)
	if m.Rows() != 300 || m.Cols() != 40 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	for r := 0; r < m.Rows(); r++ {
		_, vals := m.Row(r)
		for _, v := range vals {
			if v != 1 {
				t.Fatal("adjacency matrix has non-unit value")
			}
		}
	}
	// Row sums must equal distinct degrees.
	sums := m.RowSums(0)
	for i := 0; i < g.N(); i++ {
		if sums[i] != int64(g.DistinctDegree(i)) {
			t.Fatalf("row sum %d != Δ*_%d = %d", sums[i], i, g.DistinctDegree(i))
		}
	}
}

func TestEntryMultiplicityRowSumsAreDegrees(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(250, 30, pooling.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]int64, g.M())
	for j := range ones {
		ones[j] = 1
	}
	// A = (Aᵀ)ᵀ: the entry-indexed multiplicity matrix.
	sums := QueryMultiplicity(g).Transpose().MulVec(ones, nil)
	for i := 0; i < g.N(); i++ {
		if sums[i] != int64(g.Degree(i)) {
			t.Fatalf("weighted row sum %d != Δ_%d = %d", sums[i], i, g.Degree(i))
		}
	}
}

func TestParallelMatchesSequentialProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewRandSeeded(seed)
		n := 50 + r.Intn(400)
		m := 10 + r.Intn(60)
		g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
		if err != nil {
			return false
		}
		mat := EntryAdjacency(g)
		x := make([]int64, m)
		for i := range x {
			x[i] = int64(r.Intn(100))
		}
		seqOut := mat.MulVec(x, nil)
		for _, workers := range []int{1, 2, 3, 8} {
			parOut := mat.MulVecParallel(x, nil, workers)
			for i := range seqOut {
				if seqOut[i] != parOut[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNNZBalancedBoundsCoverAllRows(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(512, 64, pooling.BuildOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := EntryAdjacency(g)
	for _, w := range []int{1, 2, 5, 16} {
		b := m.nnzBalancedBounds(w)
		if b[0] != 0 || b[len(b)-1] != m.Rows() {
			t.Fatalf("bounds %v do not cover rows", b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("bounds %v not monotone", b)
			}
		}
	}
}
