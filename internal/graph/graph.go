// Package graph implements the random bipartite multigraph G = (V ∪ F, E)
// that underlies the pooling design of Gebhard et al.
//
// Entry-nodes V = {x_1, …, x_n} are the coordinates of the signal and
// query-nodes F = {a_1, …, a_m} are the pools. An edge of multiplicity
// A_ij records how often entry x_i was drawn into query a_j (the design
// samples with replacement, so multi-edges are expected and meaningful:
// a one-entry drawn twice contributes 2 to the query result).
//
// The graph is stored in dual CSR form — once indexed by query and once by
// entry — so both the query evaluation (∂a_j) and the decoder's
// neighborhood sums (∂x_i, ∂*x_i) are contiguous scans. The entry-side
// structure is derived from the query side deterministically and in
// parallel.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Bipartite is an immutable bipartite multigraph between n entries and m
// queries. Build one with New; all methods are safe for concurrent use
// after construction.
type Bipartite struct {
	n int // number of entry-nodes
	m int // number of query-nodes

	// Query side: for query j, the distinct entries qent[qptr[j]:qptr[j+1]]
	// (sorted, strictly increasing) with multiplicities qmul at the same
	// positions. The multiset ∂a_j has Σ qmul = query size.
	qptr []int64
	qent []int32
	qmul []int32

	// Entry side, derived: for entry i, the distinct queries
	// eqry[eptr[i]:eptr[i+1]] (sorted) with multiplicities emul.
	eptr []int64
	eqry []int32
	emul []int32
}

// New assembles a Bipartite from query-side CSR data and derives the
// entry side. qptr must have length m+1 with qptr[0] == 0 and be
// non-decreasing; qent[qptr[j]:qptr[j+1]] must be strictly increasing
// values in [0, n); qmul entries must be >= 1.
func New(n int, qptr []int64, qent, qmul []int32) (*Bipartite, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative entry count %d", n)
	}
	if len(qptr) == 0 || qptr[0] != 0 {
		return nil, fmt.Errorf("graph: qptr must start with 0")
	}
	m := len(qptr) - 1
	if int64(len(qent)) != qptr[m] || len(qent) != len(qmul) {
		return nil, fmt.Errorf("graph: CSR arrays inconsistent: qptr end %d, |qent| %d, |qmul| %d",
			qptr[m], len(qent), len(qmul))
	}
	for j := 0; j < m; j++ {
		if qptr[j] > qptr[j+1] {
			return nil, fmt.Errorf("graph: qptr decreases at query %d", j)
		}
		prev := int32(-1)
		for p := qptr[j]; p < qptr[j+1]; p++ {
			e := qent[p]
			if e < 0 || int(e) >= n {
				return nil, fmt.Errorf("graph: query %d references entry %d outside [0,%d)", j, e, n)
			}
			if e <= prev {
				return nil, fmt.Errorf("graph: query %d entry list not strictly increasing at %d", j, e)
			}
			if qmul[p] < 1 {
				return nil, fmt.Errorf("graph: query %d has multiplicity %d < 1", j, qmul[p])
			}
			prev = e
		}
	}
	g := &Bipartite{n: n, m: m, qptr: qptr, qent: qent, qmul: qmul}
	g.buildEntrySide()
	return g, nil
}

// entryBlock is the number of entries whose rows one transpose pass
// fills: few enough that their write heads (two cache lines per entry)
// stay in L2 while the pass walks every query.
const entryBlock = 1024

// buildEntrySide derives (eptr, eqry, emul) from the query side. The fill
// runs in entry blocks spread over the workers: a block's pass walks
// every query's run of entries in the block, in query order, so each
// entry's query list comes out sorted by query index and the result is
// deterministic regardless of scheduling.
func (g *Bipartite) buildEntrySide() {
	counts := make([]int64, g.n+1)
	for _, e := range g.qent {
		counts[e+1]++
	}
	for i := 0; i < g.n; i++ {
		counts[i+1] += counts[i]
	}
	g.eptr = counts
	total := g.eptr[g.n]
	g.eqry = make([]int32, total)
	g.emul = make([]int32, total)

	workers := runtime.GOMAXPROCS(0)
	if workers > g.n {
		workers = g.n
	}
	if workers < 1 {
		workers = 1
	}
	// With few pairs the scan overhead dominates; fall back to one pass.
	if total < 1<<14 {
		workers = 1
	}
	blocks := (g.n + entryBlock - 1) / entryBlock
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cursor := make([]int64, entryBlock)
			for b := int(next.Add(1) - 1); b < blocks; b = int(next.Add(1) - 1) {
				lo := int32(b * entryBlock)
				hi := int32(min((b+1)*entryBlock, g.n))
				copy(cursor, g.eptr[lo:hi])
				for j := 0; j < g.m; j++ {
					// Query entries are sorted, so the block's entries are
					// one contiguous run of each query.
					off := g.qptr[j]
					ents := g.qent[off:g.qptr[j+1]]
					start, _ := slices.BinarySearch(ents, lo)
					for p := start; p < len(ents) && ents[p] < hi; p++ {
						c := &cursor[ents[p]-lo]
						g.eqry[*c] = int32(j)
						g.emul[*c] = g.qmul[off+int64(p)]
						*c++
					}
				}
			}
		}()
	}
	wg.Wait()
}

// N returns the number of entry-nodes (signal length).
func (g *Bipartite) N() int { return g.n }

// M returns the number of query-nodes (pools).
func (g *Bipartite) M() int { return g.m }

// QueryEntries returns the distinct entries of query j and their
// multiplicities. The returned slices alias internal storage and must not
// be modified.
func (g *Bipartite) QueryEntries(j int) (entries, mults []int32) {
	return g.qent[g.qptr[j]:g.qptr[j+1]], g.qmul[g.qptr[j]:g.qptr[j+1]]
}

// EntryQueries returns the distinct queries containing entry i (the set
// ∂*x_i) and the multiplicities with which i occurs in each. The returned
// slices alias internal storage and must not be modified.
func (g *Bipartite) EntryQueries(i int) (queries, mults []int32) {
	return g.eqry[g.eptr[i]:g.eptr[i+1]], g.emul[g.eptr[i]:g.eptr[i+1]]
}

// QuerySize returns |∂a_j| counted with multiplicity (Γ for the paper's
// design).
func (g *Bipartite) QuerySize(j int) int {
	var s int64
	for p := g.qptr[j]; p < g.qptr[j+1]; p++ {
		s += int64(g.qmul[p])
	}
	return int(s)
}

// QueryDistinct returns the number of distinct entries in query j.
func (g *Bipartite) QueryDistinct(j int) int {
	return int(g.qptr[j+1] - g.qptr[j])
}

// Degree returns Δ_i, the number of times entry i was drawn over all
// queries (multi-edges counted with multiplicity).
func (g *Bipartite) Degree(i int) int {
	var s int64
	for p := g.eptr[i]; p < g.eptr[i+1]; p++ {
		s += int64(g.emul[p])
	}
	return int(s)
}

// DistinctDegree returns Δ*_i = |∂*x_i|, the number of distinct queries
// containing entry i.
func (g *Bipartite) DistinctDegree(i int) int {
	return int(g.eptr[i+1] - g.eptr[i])
}

// HalfEdges returns the total number of half-edges Σ_j |∂a_j| (with
// multiplicity), i.e. m·Γ for the paper's design.
func (g *Bipartite) HalfEdges() int64 {
	var s int64
	for _, mu := range g.qmul {
		s += int64(mu)
	}
	return s
}

// DistinctPairs returns the number of (entry, query) incidences ignoring
// multiplicity.
func (g *Bipartite) DistinctPairs() int64 { return g.eptr[g.n] }

// DegreeStats summarizes the degree sequences of the graph; used both by
// diagnostics and by the concentration check below.
type DegreeStats struct {
	MinDegree, MaxDegree                 int
	MinDistinctDegree, MaxDistinctDegree int
	MeanDegree, MeanDistinctDegree       float64
}

// Stats computes degree statistics over all entry-nodes.
func (g *Bipartite) Stats() DegreeStats {
	if g.n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{MinDegree: math.MaxInt, MinDistinctDegree: math.MaxInt}
	var sumDeg, sumDist int64
	for i := 0; i < g.n; i++ {
		d := g.Degree(i)
		dd := g.DistinctDegree(i)
		sumDeg += int64(d)
		sumDist += int64(dd)
		if d < st.MinDegree {
			st.MinDegree = d
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		if dd < st.MinDistinctDegree {
			st.MinDistinctDegree = dd
		}
		if dd > st.MaxDistinctDegree {
			st.MaxDistinctDegree = dd
		}
	}
	st.MeanDegree = float64(sumDeg) / float64(g.n)
	st.MeanDistinctDegree = float64(sumDist) / float64(g.n)
	return st
}
