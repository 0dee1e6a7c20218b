// Package graph implements the random bipartite multigraph G = (V ∪ F, E)
// that underlies the pooling design of Gebhard et al.
//
// Entry-nodes V = {x_1, …, x_n} are the coordinates of the signal and
// query-nodes F = {a_1, …, a_m} are the pools. An edge of multiplicity
// A_ij records how often entry x_i was drawn into query a_j (the design
// samples with replacement, so multi-edges are expected and meaningful:
// a one-entry drawn twice contributes 2 to the query result).
//
// The graph is stored once, in CSR form indexed by entry: entry x_i's
// distinct queries ∂*x_i, sorted, with their multiplicities. That is the
// side every decoder reads — MN's Ψ = M·y sums each entry's distinct
// queries, and measuring or checking a signal scatters its support's
// edges into the m results — so a query-indexed copy would double the
// resident design for nothing. Each query keeps only its distinct count
// and its size. Code that needs the pools in query order (serializers,
// content hashes) streams them with ForEachQuery, which rebuilds each
// query's row from the entry side with O(n + m) scratch, one range of
// queries at a time.
//
// FromQueryRows assembles a graph from per-query rows by counting: one
// pass validates every row and counts each entry's distinct queries, a
// prefix sum sizes the entry side exactly, and a second pass writes each
// row at per-worker cursors. The query side is never materialized, so no
// build holds both forms.
package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Bipartite is an immutable bipartite multigraph between n entries and m
// queries. Build one with FromQueryRows, New or FromEntrySide; all
// methods are safe for concurrent use after construction.
type Bipartite struct {
	n int // number of entry-nodes
	m int // number of query-nodes

	// For entry i, the distinct queries eqry[eptr[i]:eptr[i+1]] (strictly
	// increasing) with multiplicities emul at the same positions.
	eptr []int64
	eqry []int32
	emul []int32

	// qdist[j] is the number of distinct entries of query j; qsize[j] its
	// size |∂a_j| counted with multiplicity.
	qdist []int32
	qsize []int64
}

// RowFunc returns the row of query j: its distinct entries, strictly
// increasing, and their multiplicities (each >= 1). The slices may alias
// scratch that the next call overwrites. A RowFunc must be a pure
// function of j: FromQueryRows asks for every row twice and writes the
// second answer at positions sized from the first.
type RowFunc func(j int) (entries, mults []int32, err error)

// FromQueryRows assembles the graph with n entries and m queries whose
// query j is the row a RowFunc returns for it. The queries are split into
// one contiguous range per worker (workers is clamped to [1, m]); newRow
// runs once per worker, and the RowFunc it returns is called by that
// worker alone, over its range in increasing order, once per pass:
//
//   - The count pass validates every row as New does and counts, in a
//     per-worker array of n counters, each entry's distinct queries.
//   - A prefix sum over (entry, worker) sizes the entry side exactly and
//     turns the counters into write cursors: worker w's queries of entry
//     i land after those of workers before w, so every entry's row comes
//     out sorted by query whatever the worker count.
//   - The fill pass writes each row's (query, multiplicity) pairs at its
//     worker's cursors.
//
// A RowFunc error or an invalid row stops the build in the count pass,
// before the entry side is allocated. Scratch beyond the result is
// O(workers·n + m).
func FromQueryRows(n, m, workers int, newRow func() RowFunc) (*Bipartite, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: entry count %d outside [0,%d]", n, math.MaxInt32)
	}
	if m < 0 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: query count %d outside [0,%d]", m, math.MaxInt32)
	}
	workers = max(1, min(workers, m))
	rows := make([]RowFunc, workers)
	cursors := make([][]int64, workers)
	for w := range rows {
		rows[w] = newRow()
		cursors[w] = make([]int64, n)
	}
	g := &Bipartite{n: n, m: m, qdist: make([]int32, m), qsize: make([]int64, m)}
	errs := make([]error, workers)

	forRanges(m, workers, func(w, lo, hi int) {
		count := cursors[w]
		for j := lo; j < hi; j++ {
			ents, muls, err := rows[w](j)
			if err == nil {
				g.qsize[j], err = checkRow(n, j, ents, muls)
			}
			if err != nil {
				errs[w] = err
				return
			}
			g.qdist[j] = int32(len(ents))
			for _, e := range ents {
				count[e]++
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}

	g.eptr = make([]int64, n+1)
	var total int64
	for i := 0; i < n; i++ {
		g.eptr[i] = total
		for _, c := range cursors {
			c[i], total = total, total+c[i]
		}
	}
	g.eptr[n] = total
	g.eqry = make([]int32, total)
	g.emul = make([]int32, total)

	forRanges(m, workers, func(w, lo, hi int) {
		cur := cursors[w]
		for j := lo; j < hi; j++ {
			ents, muls, err := rows[w](j)
			if err == nil && len(ents) != int(g.qdist[j]) {
				err = fmt.Errorf("graph: query %d row changed between passes", j)
			}
			if err != nil {
				errs[w] = err
				return
			}
			for p, e := range ents {
				c := cur[e]
				g.eqry[c] = int32(j)
				g.emul[c] = muls[p]
				cur[e] = c + 1
			}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return g, nil
}

// checkRow validates query j's row and returns its size with
// multiplicity.
func checkRow(n, j int, ents, muls []int32) (int64, error) {
	if len(ents) != len(muls) {
		return 0, fmt.Errorf("graph: query %d has %d entries and %d multiplicities", j, len(ents), len(muls))
	}
	var size int64
	prev := int32(-1)
	for p, e := range ents {
		if e < 0 || int(e) >= n {
			return 0, fmt.Errorf("graph: query %d references entry %d outside [0,%d)", j, e, n)
		}
		if e <= prev {
			return 0, fmt.Errorf("graph: query %d entry list not strictly increasing at %d", j, e)
		}
		if muls[p] < 1 {
			return 0, fmt.Errorf("graph: query %d has multiplicity %d < 1", j, muls[p])
		}
		size += int64(muls[p])
		prev = e
	}
	return size, nil
}

// forRanges splits [0, items) into one contiguous range per worker and
// runs body(w, lo, hi) for each on its own goroutine (inline for one
// worker), returning when every call has.
func forRanges(items, workers int, body func(w, lo, hi int)) {
	if workers <= 1 {
		body(0, 0, items)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, w*items/workers, (w+1)*items/workers)
		}(w)
	}
	wg.Wait()
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// New assembles a Bipartite from query-side CSR arrays: qptr must have
// length m+1 with qptr[0] == 0 and be non-decreasing;
// qent[qptr[j]:qptr[j+1]] must be strictly increasing values in [0, n);
// qmul entries must be >= 1. The arrays are read, not kept: the result
// holds only the entry side.
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
	}
	workers := runtime.GOMAXPROCS(0)
	// With few pairs the fan-out costs more than it saves.
	if len(qent) < 1<<14 {
		workers = 1
	}
	return FromQueryRows(n, m, workers, func() RowFunc {
		return func(j int) ([]int32, []int32, error) {
			return qent[qptr[j]:qptr[j+1]], qmul[qptr[j]:qptr[j+1]], nil
		}
	})
}

// FromEntrySide wraps entry-side CSR arrays as a graph, for designs
// sampled per entry: eptr must have length n+1 with eptr[0] == 0 and be
// non-decreasing; eqry[eptr[i]:eptr[i+1]] must be strictly increasing
// values in [0, m); emul entries must be >= 1. The graph keeps the arrays.
func FromEntrySide(m int, eptr []int64, eqry, emul []int32) (*Bipartite, error) {
	if m < 0 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: query count %d outside [0,%d]", m, math.MaxInt32)
	}
	if len(eptr) == 0 || eptr[0] != 0 {
		return nil, fmt.Errorf("graph: eptr must start with 0")
	}
	n := len(eptr) - 1
	if int64(len(eqry)) != eptr[n] || len(eqry) != len(emul) {
		return nil, fmt.Errorf("graph: CSR arrays inconsistent: eptr end %d, |eqry| %d, |emul| %d",
			eptr[n], len(eqry), len(emul))
	}
	g := &Bipartite{n: n, m: m, eptr: eptr, eqry: eqry, emul: emul, qdist: make([]int32, m), qsize: make([]int64, m)}
	for i := 0; i < n; i++ {
		if eptr[i] > eptr[i+1] {
			return nil, fmt.Errorf("graph: eptr decreases at entry %d", i)
		}
		prev := int32(-1)
		for p := eptr[i]; p < eptr[i+1]; p++ {
			j, mu := eqry[p], emul[p]
			if j < 0 || int(j) >= m {
				return nil, fmt.Errorf("graph: entry %d references query %d outside [0,%d)", i, j, m)
			}
			if j <= prev {
				return nil, fmt.Errorf("graph: entry %d query list not strictly increasing at %d", i, j)
			}
			if mu < 1 {
				return nil, fmt.Errorf("graph: entry %d has multiplicity %d < 1", i, mu)
			}
			g.qdist[j]++
			g.qsize[j] += int64(mu)
			prev = j
		}
	}
	return g, nil
}

// visitBlock is the floor on the pairs one ForEachQuery block may
// gather: enough queries per sweep over the entries that the sweep's
// per-entry cost stays small next to the pairs it moves, with the block
// (8 bytes a pair) still about the size of a core's L2 cache. At the
// home scale (n = 10⁴, m = 600) 2^18 walks in 13–16 ms on 2 vCPUs,
// against 22–26 ms at 2^16 and about 30 ms at 2^19.
const visitBlock = 1 << 18

// ForEachQuery calls fn(j, entries, mults) for every query j in [lo, hi),
// in increasing order, with the query's distinct entries strictly
// increasing and their multiplicities — the row the graph was built
// from. The slices alias scratch that the next call overwrites. It stops
// at and returns the first error fn returns. Disjoint ranges may be
// walked concurrently.
//
// Rows are gathered in blocks of consecutive queries holding at most
// max(2n, 2^18) pairs: one sweep over the entries, in increasing order,
// appends each entry to every block query it belongs to, so rows come
// out sorted. No row exceeds n pairs, so every block but the last holds
// more than n, and a walk costs O(pairs + n + m), plus a binary search
// per entry to find where a range with lo > 0 starts, with O(n + m)
// scratch.
func (g *Bipartite) ForEachQuery(lo, hi int, fn func(j int, entries, mults []int32) error) error {
	if lo < 0 || lo > hi || hi > g.m {
		panic(fmt.Sprintf("graph: query range [%d,%d) outside [0,%d]", lo, hi, g.m))
	}
	var pairs int64
	for _, d := range g.qdist[lo:hi] {
		pairs += int64(d)
	}
	budget := min(max(visitBlock, 2*int64(g.n)), pairs)
	ents := make([]int32, budget)
	muls := make([]int32, budget)
	pos := make([]int64, g.n) // entry i's first unvisited query
	for i := range pos {
		pos[i] = g.eptr[i]
		if lo > 0 {
			k, _ := slices.BinarySearch(g.eqry[g.eptr[i]:g.eptr[i+1]], int32(lo))
			pos[i] += int64(k)
		}
	}
	cur := make([]int64, hi)
	for blo := lo; blo < hi; {
		// Take queries while the block fits; cur[j] becomes query j's
		// write cursor in the block buffer.
		bhi, size := blo, int64(0)
		for bhi < hi && size+int64(g.qdist[bhi]) <= budget {
			cur[bhi] = size
			size += int64(g.qdist[bhi])
			bhi++
		}
		end := int32(bhi)
		for i := 0; i < g.n; i++ {
			p := pos[i]
			eq, em := g.eqry[p:g.eptr[i+1]], g.emul[p:g.eptr[i+1]]
			k := 0
			for ; k < len(eq) && eq[k] < end; k++ {
				c := cur[eq[k]]
				ents[c] = int32(i)
				muls[c] = em[k]
				cur[eq[k]] = c + 1
			}
			pos[i] = p + int64(k)
		}
		for j, start := blo, int64(0); j < bhi; j++ {
			stop := start + int64(g.qdist[j])
			if err := fn(j, ents[start:stop], muls[start:stop]); err != nil {
				return err
			}
			start = stop
		}
		blo = bhi
	}
	return nil
}

// N returns the number of entry-nodes (signal length).
func (g *Bipartite) N() int { return g.n }

// M returns the number of query-nodes (pools).
func (g *Bipartite) M() int { return g.m }

// EntryQueries returns the distinct queries containing entry i (the set
// ∂*x_i) and the multiplicities with which i occurs in each. The returned
// slices alias internal storage and must not be modified.
func (g *Bipartite) EntryQueries(i int) (queries, mults []int32) {
	return g.eqry[g.eptr[i]:g.eptr[i+1]], g.emul[g.eptr[i]:g.eptr[i+1]]
}

// QuerySize returns |∂a_j| counted with multiplicity (Γ for the paper's
// design).
func (g *Bipartite) QuerySize(j int) int { return int(g.qsize[j]) }

// QueryDistinct returns the number of distinct entries in query j.
func (g *Bipartite) QueryDistinct(j int) int { return int(g.qdist[j]) }

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
	for _, size := range g.qsize {
		s += size
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
