// Package sparse provides the compressed-sparse-row matrices and parallel
// matrix–vector products behind the MN-Algorithm's bulk phase.
//
// The paper observes (§I, "Parallelized Reconstruction") that the decoder's
// neighborhood sums are two matrix–vector products with the unweighted
// biadjacency matrix M ∈ {0,1}^{n×m} of the pooling graph:
//
//	Δ* = M·1   and   Ψ = M·y .
//
// This package implements exactly that: integer CSR SpMV, parallelized over
// contiguous row blocks with one goroutine per block, plus the weighted
// query-indexed matrix (multiplicities A_ij) for code that wants the
// design as an explicit operator.
package sparse

import (
	"fmt"
	"runtime"
	"sync"

	"pooleddata/internal/graph"
)

// CSR is an immutable sparse matrix in compressed-sparse-row form with
// int32 values (all use sites store 0/1 indicators or small edge
// multiplicities). Safe for concurrent reads.
type CSR struct {
	rows, cols int
	ptr        []int64
	col        []int32
	val        []int32
}

// NewCSR validates and wraps raw CSR arrays. Column indices within a row
// need not be sorted, but must be in range.
func NewCSR(rows, cols int, ptr []int64, col, val []int32) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative shape %dx%d", rows, cols)
	}
	if len(ptr) != rows+1 || ptr[0] != 0 {
		return nil, fmt.Errorf("sparse: ptr must have length rows+1 and start at 0")
	}
	if int64(len(col)) != ptr[rows] || len(col) != len(val) {
		return nil, fmt.Errorf("sparse: nnz arrays inconsistent")
	}
	for r := 0; r < rows; r++ {
		if ptr[r] > ptr[r+1] {
			return nil, fmt.Errorf("sparse: ptr decreases at row %d", r)
		}
	}
	for _, c := range col {
		if c < 0 || int(c) >= cols {
			return nil, fmt.Errorf("sparse: column %d outside [0,%d)", c, cols)
		}
	}
	return &CSR{rows: rows, cols: cols, ptr: ptr, col: col, val: val}, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int64 { return m.ptr[m.rows] }

// Row returns the column indices and values of row r. The slices alias
// internal storage and must not be modified.
func (m *CSR) Row(r int) (cols, vals []int32) {
	return m.col[m.ptr[r]:m.ptr[r+1]], m.val[m.ptr[r]:m.ptr[r+1]]
}

// EntryAdjacency returns the n×m unweighted biadjacency matrix of g from
// the entry side: row i has a 1 in column j iff query a_j contains entry
// x_i at least once. This is the paper's matrix M.
func EntryAdjacency(g *graph.Bipartite) *CSR {
	n := g.N()
	ptr := make([]int64, n+1)
	for i := 0; i < n; i++ {
		ptr[i+1] = ptr[i] + int64(g.DistinctDegree(i))
	}
	col := make([]int32, ptr[n])
	val := make([]int32, ptr[n])
	for i := 0; i < n; i++ {
		qs, _ := g.EntryQueries(i)
		copy(col[ptr[i]:], qs)
		for p := ptr[i]; p < ptr[i+1]; p++ {
			val[p] = 1
		}
	}
	return &CSR{rows: n, cols: g.M(), ptr: ptr, col: col, val: val}
}

// QueryMultiplicity returns the m×n matrix Aᵀ indexed by query: row j
// holds the multiplicity of every entry of query a_j, streamed out of the
// graph's entry side in query order.
func QueryMultiplicity(g *graph.Bipartite) *CSR {
	m := g.M()
	ptr := make([]int64, m+1)
	for j := 0; j < m; j++ {
		ptr[j+1] = ptr[j] + int64(g.QueryDistinct(j))
	}
	col := make([]int32, ptr[m])
	val := make([]int32, ptr[m])
	g.ForEachQuery(0, g.M(), func(j int, es, mu []int32) error {
		copy(col[ptr[j]:], es)
		copy(val[ptr[j]:], mu)
		return nil
	})
	return &CSR{rows: m, cols: g.N(), ptr: ptr, col: col, val: val}
}

// MulVec computes out = M·x sequentially. len(x) must equal Cols();
// out is allocated if nil, else it must have length Rows().
func (m *CSR) MulVec(x []int64, out []int64) []int64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVec input length %d, want %d", len(x), m.cols))
	}
	if out == nil {
		out = make([]int64, m.rows)
	} else if len(out) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec output length %d, want %d", len(out), m.rows))
	}
	for r := 0; r < m.rows; r++ {
		var s int64
		for p := m.ptr[r]; p < m.ptr[r+1]; p++ {
			s += int64(m.val[p]) * x[m.col[p]]
		}
		out[r] = s
	}
	return out
}

// MulVecParallel computes out = M·x with rows partitioned into contiguous
// blocks across workers goroutines (0 means GOMAXPROCS). The result is
// bit-identical to MulVec: integer addition is associative, and each row is
// written by exactly one worker.
func (m *CSR) MulVecParallel(x []int64, out []int64, workers int) []int64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVecParallel input length %d, want %d", len(x), m.cols))
	}
	if out == nil {
		out = make([]int64, m.rows)
	} else if len(out) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecParallel output length %d, want %d", len(out), m.rows))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m.rows {
		workers = m.rows
	}
	if workers <= 1 || m.NNZ() < 1<<13 {
		return m.MulVec(x, out)
	}
	// Split rows so each block covers roughly equal nnz, not equal row
	// count: degree skew would otherwise unbalance the blocks.
	bounds := m.nnzBalancedBounds(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				var s int64
				for p := m.ptr[r]; p < m.ptr[r+1]; p++ {
					s += int64(m.val[p]) * x[m.col[p]]
				}
				out[r] = s
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// nnzBalancedBounds returns workers+1 row boundaries such that each block
// holds about NNZ/workers stored entries.
func (m *CSR) nnzBalancedBounds(workers int) []int {
	bounds := make([]int, workers+1)
	bounds[workers] = m.rows
	target := m.NNZ() / int64(workers)
	r := 0
	for w := 1; w < workers; w++ {
		goal := int64(w) * target
		for r < m.rows && m.ptr[r] < goal {
			r++
		}
		bounds[w] = r
	}
	return bounds
}

// RowSums returns the vector of row sums M·1 (= Δ* for the adjacency
// matrix), computed in parallel.
func (m *CSR) RowSums(workers int) []int64 {
	ones := make([]int64, m.cols)
	for i := range ones {
		ones[i] = 1
	}
	return m.MulVecParallel(ones, nil, workers)
}

// MulVecFloat computes out = M·x over float64, sequentially. Baseline
// decoders (BP) operate on real-valued messages.
func (m *CSR) MulVecFloat(x []float64, out []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("sparse: MulVecFloat input length %d, want %d", len(x), m.cols))
	}
	if out == nil {
		out = make([]float64, m.rows)
	} else if len(out) != m.rows {
		panic(fmt.Sprintf("sparse: MulVecFloat output length %d, want %d", len(out), m.rows))
	}
	for r := 0; r < m.rows; r++ {
		var s float64
		for p := m.ptr[r]; p < m.ptr[r+1]; p++ {
			s += float64(m.val[p]) * x[m.col[p]]
		}
		out[r] = s
	}
	return out
}

// Transpose returns the transposed matrix as a new CSR.
func (m *CSR) Transpose() *CSR {
	ptr := make([]int64, m.cols+1)
	for _, c := range m.col {
		ptr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		ptr[c+1] += ptr[c]
	}
	col := make([]int32, m.NNZ())
	val := make([]int32, m.NNZ())
	cursor := make([]int64, m.cols)
	copy(cursor, ptr[:m.cols])
	for r := 0; r < m.rows; r++ {
		for p := m.ptr[r]; p < m.ptr[r+1]; p++ {
			c := m.col[p]
			col[cursor[c]] = int32(r)
			val[cursor[c]] = m.val[p]
			cursor[c]++
		}
	}
	return &CSR{rows: m.cols, cols: m.rows, ptr: ptr, col: col, val: val}
}
