// Package graph implements the random bipartite multigraph G = (V ∪ F, E)
// that underlies the pooling design of Gebhard et al.
//
// Entry-nodes V = {x_1, …, x_n} are the coordinates of the signal and
// query-nodes F = {a_1, …, a_m} are the pools. An edge of multiplicity
// A_ij records how often entry x_i was drawn into query a_j (the design
// samples with replacement, so multi-edges are expected and meaningful:
// a one-entry drawn twice contributes 2 to the query result).
//
// The graph is stored once, indexed by entry: entry x_i's distinct
// queries ∂*x_i in increasing order, with their multiplicities. That is
// the side every decoder reads, through a few operations rather than the
// storage itself: Psi sums a vector over each entry's distinct queries
// (MN's Ψ = M·y), AddRow scatters an entry's row with multiplicity into
// m results (measuring or checking a signal), Row reads one entry's
// queries into caller scratch, and Rows reads every row at once for
// decoders that sweep the whole graph many times (BP, LP).
// Each query keeps only its distinct count and its size. Code that needs
// the pools in query order (the labio CSV, content hashes) streams them
// with ForEachQuery, which rebuilds each query's row from the entry side
// with O(n + m) scratch. A design's binary form (AppendBinary,
// ParseBinary) is the entry side itself, so it needs no such walk.
//
// Every graph keeps one multiplicity byte per (entry, query) pair, in
// entry order, so no multiplicity may exceed MaxMultiplicity. The pairs'
// queries take one of two layouts, chosen once at build time by size:
//
//   - a query index per pair, four bytes, for sparse designs;
//   - a bit per (entry, query) cell, n·⌈m/64⌉ eight-byte words, whenever
//     that is smaller than the index array: for designs where more than
//     about one cell in 32 is set.
//
// That is the container choice of Roaring bitmaps, made once per graph.
// The paper's design draws Γ = n/2 entries per query with replacement,
// so 39% of its cells are set and it is stored as bits: at n = 10⁴,
// m = 600 the graph takes 3.25 MB (2.36 MB of multiplicities, 0.8 MB of
// bits) where an index array would add 9.44 MB. A multiplicity there is
// about Poisson(1/2): 77% of the pairs have multiplicity 1 and the
// largest is 8. FromQueryRows refuses a value above MaxMultiplicity with
// an error naming the query, the entry and the value; RowFunc and
// ForEachQuery carry int32 multiplicities, so a producer reports an
// over-limit value as it is.
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
	"math/bits"
	"runtime"
	"slices"
	"sync"
)

// MaxMultiplicity is the largest multiplicity a graph stores: one byte
// per (entry, query) pair.
const MaxMultiplicity = math.MaxUint8

// MaxParsedDim caps the entry count n and the query count m of a design
// parsed from outside the program (a labio CSV upload, a design's binary
// form) before anything is allocated from them: a graph keeps an offset
// per entry (8 bytes) and two counts per query (12 bytes) whatever its
// pairs, so a few header bytes could otherwise claim terabytes.
const MaxParsedDim = 1 << 24

// MaxSpecPairs caps the (entry, query) pairs a design described by
// parameters alone may claim before it is built: a few bytes of
// parameters could otherwise ask for a graph of any size. It is far
// above the service's home scale (3·10⁶ draws at n = 10⁴, m = 600) and
// bounds a graph to a few hundred MB.
const MaxSpecPairs = 1 << 26

// Bipartite is an immutable bipartite multigraph between n entries and m
// queries. Build one with FromQueryRows, New or FromEntrySide; all
// methods are safe for concurrent use after construction.
type Bipartite struct {
	n int // number of entry-nodes
	m int // number of query-nodes

	// Entry i's pairs take positions eptr[i] to eptr[i+1] in increasing
	// query order; emul holds their multiplicities.
	eptr []int64
	emul []uint8

	// The pairs' queries, in the layout bitStored picks; the other slice
	// is nil. eqry holds the query index of each pair, at the pair's
	// position. cells holds one bit per (entry, query) cell, block-major:
	// word b of entry i, for queries 64b to 64b+63, is cells[b·n+i].
	eqry  []int32
	cells []uint64

	// qdist[j] is the number of distinct entries of query j; qsize[j] its
	// size |∂a_j| counted with multiplicity.
	qdist []int32
	qsize []int64
}

// bitStored reports whether a graph of n entries and m queries with the
// given number of distinct pairs stores its queries as bits: when the
// bitmap, n·⌈m/64⌉ eight-byte words, is smaller than a four-byte query
// index per pair.
func bitStored(n, m int, pairs int64) bool {
	return int64(n)*int64(blocks(m))*8 < 4*pairs
}

// blocks returns the number of 64-query blocks that cover m queries.
func blocks(m int) int { return (m + 63) / 64 }

// RowFunc returns the row of query j: its distinct entries, strictly
// increasing, and their multiplicities (each in [1, MaxMultiplicity]).
// The slices may alias scratch that the next call overwrites. A RowFunc
// must be a pure function of j: FromQueryRows asks for every row twice
// and writes the second answer at positions sized from the first.
type RowFunc func(j int) (entries, mults []int32, err error)

// FromQueryRows assembles the graph with n entries and m queries whose
// query j is the row a RowFunc returns for it. The queries are split on
// multiples of 64 into one contiguous range per worker, balanced by
// 64-query block (workers is clamped to [1, ⌈m/64⌉]; with m = 0 there
// are none), so no two workers ever write one word of a bit-stored
// graph. newRow runs once per worker, and the RowFunc it returns is
// called by that worker alone, over its range in increasing order, once
// per pass:
//
//   - The count pass validates every row as New does and counts, in a
//     per-worker array of n counters, each entry's distinct queries.
//   - A prefix sum over (entry, worker) sizes the entry side exactly,
//     picks its layout (bitStored) and turns the counters into write
//     cursors: worker w's queries of entry i land after those of workers
//     before w, so every entry's row comes out sorted by query whatever
//     the worker count.
//   - The fill pass writes each row's multiplicities at its worker's
//     cursors, and its query as an index there or as a bit.
//
// A RowFunc error or an invalid row stops the build in the count pass,
// before the entry side is allocated. Scratch beyond the result is
// O(workers·n + m).
func FromQueryRows(n, m, workers int, newRow func() RowFunc) (*Bipartite, error) {
	return fromQueryRows(n, m, workers, newRow, bitStored)
}

// fromQueryRows is FromQueryRows with the layout rule as a parameter, so
// tests can build one incidence in both layouts.
func fromQueryRows(n, m, workers int, newRow func() RowFunc, useBits func(n, m int, pairs int64) bool) (*Bipartite, error) {
	if n < 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: entry count %d outside [0,%d]", n, math.MaxInt32)
	}
	if m < 0 || m > math.MaxInt32 {
		return nil, fmt.Errorf("graph: query count %d outside [0,%d]", m, math.MaxInt32)
	}
	if m == 0 {
		// No rows to ask for, so no RowFunc (and none of its scratch).
		return &Bipartite{n: n, eptr: make([]int64, n+1)}, nil
	}
	workers = max(1, min(workers, blocks(m)))
	rows := make([]RowFunc, workers)
	cursors := make([][]int64, workers)
	for w := range rows {
		rows[w] = newRow()
		cursors[w] = make([]int64, n)
	}
	g := &Bipartite{n: n, m: m, qdist: make([]int32, m), qsize: make([]int64, m)}
	errs := make([]error, workers)

	forRanges(m, 64, workers, func(w, lo, hi int) {
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
	g.emul = make([]uint8, total)
	if useBits(n, m, total) {
		g.cells = make([]uint64, blocks(m)*n)
	} else {
		g.eqry = make([]int32, total)
	}

	forRanges(m, 64, workers, func(w, lo, hi int) {
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
			if g.cells != nil {
				words, bit := g.cells[(j>>6)*n:(j>>6+1)*n], uint64(1)<<(j&63)
				for _, e := range ents {
					words[e] |= bit
				}
			}
			for p, e := range ents {
				c := cur[e]
				if g.eqry != nil {
					g.eqry[c] = int32(j)
				}
				g.emul[c] = uint8(muls[p]) // checkRow bounded it
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
		if muls[p] < 1 || muls[p] > MaxMultiplicity {
			return 0, fmt.Errorf("graph: query %d entry %d has multiplicity %d outside [1,%d]", j, e, muls[p], MaxMultiplicity)
		}
		size += int64(muls[p])
		prev = e
	}
	return size, nil
}

// forRanges splits [0, items) into one contiguous range per worker, each
// starting on a multiple of grain and balanced by grain-sized units,
// and runs body(w, lo, hi) for each on its own goroutine (inline for one
// worker), returning when every call has.
func forRanges(items, grain, workers int, body func(w, lo, hi int)) {
	if workers <= 1 {
		body(0, 0, items)
		return
	}
	units := (items + grain - 1) / grain
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body(w, min(w*units/workers*grain, items), min((w+1)*units/workers*grain, items))
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
// qmul entries must be in [1, MaxMultiplicity]. The arrays are read, not
// kept: the result holds only the entry side.
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
// values in [0, m); emul entries must be nonzero. The graph keeps eptr
// and emul, and keeps eqry unless the design is dense enough to store
// its queries as bits (see the package doc).
func FromEntrySide(m int, eptr []int64, eqry []int32, emul []uint8) (*Bipartite, error) {
	return fromEntrySide(m, eptr, eqry, emul, bitStored)
}

// fromEntrySide is FromEntrySide with the layout rule as a parameter.
func fromEntrySide(m int, eptr []int64, eqry []int32, emul []uint8, useBits func(n, m int, pairs int64) bool) (*Bipartite, error) {
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
			if mu == 0 {
				return nil, fmt.Errorf("graph: entry %d query %d has multiplicity 0", i, j)
			}
			g.qdist[j]++
			g.qsize[j] += int64(mu)
			prev = j
		}
	}
	if useBits(n, m, eptr[n]) {
		g.cells = make([]uint64, blocks(m)*n)
		for i := 0; i < n; i++ {
			for _, j := range eqry[eptr[i]:eptr[i+1]] {
				g.cells[int(j>>6)*n+i] |= 1 << (j & 63)
			}
		}
		g.eqry = nil
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

// ForEachQuery calls fn(j, entries, mults) for every query j in
// increasing order, with the query's distinct entries strictly
// increasing and their multiplicities — the row the graph was built
// from. The slices alias scratch that the next call overwrites. It stops
// at and returns the first error fn returns.
//
// Rows are gathered in blocks of consecutive queries holding at most
// max(2n, 2^18) pairs: one sweep over the entries, in increasing order,
// appends each entry to every block query it belongs to, so rows come
// out sorted. No row exceeds n pairs, so every block but the last holds
// more than n, and a walk costs O(pairs + n + m) with O(n + m) scratch.
func (g *Bipartite) ForEachQuery(fn func(j int, entries, mults []int32) error) error {
	budget := min(max(visitBlock, 2*int64(g.n)), g.DistinctPairs())
	ents := make([]int32, budget)
	muls := make([]int32, budget)
	pos := slices.Clone(g.eptr[:g.n]) // entry i's first unvisited pair
	cur := make([]int64, g.m)
	for blo := 0; blo < g.m; {
		// Take queries while the block fits; cur[j] becomes query j's
		// write cursor in the block buffer.
		bhi, size := blo, int64(0)
		for bhi < g.m && size+int64(g.qdist[bhi]) <= budget {
			cur[bhi] = size
			size += int64(g.qdist[bhi])
			bhi++
		}
		for i := 0; i < g.n; i++ {
			p := pos[i]
			if g.cells == nil {
				for end := g.eptr[i+1]; p < end && int(g.eqry[p]) < bhi; p++ {
					c := cur[g.eqry[p]]
					ents[c], muls[c] = int32(i), int32(g.emul[p])
					cur[g.eqry[p]] = c + 1
				}
			} else {
				for b := blo >> 6; b<<6 < bhi; b++ {
					for w := g.cells[b*g.n+i] & spanMask(b, blo, bhi); w != 0; w &= w - 1 {
						j := b<<6 + bits.TrailingZeros64(w)
						c := cur[j]
						ents[c], muls[c] = int32(i), int32(g.emul[p])
						cur[j] = c + 1
						p++
					}
				}
			}
			pos[i] = p
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

// spanMask returns the bits of 64-query block b that fall in [lo, hi).
func spanMask(b, lo, hi int) uint64 {
	mask := ^uint64(0)
	if d := lo - b<<6; d > 0 {
		mask <<= d
	}
	if d := b<<6 + 64 - hi; d > 0 {
		mask &= ^uint64(0) >> d
	}
	return mask
}

// N returns the number of entry-nodes (signal length).
func (g *Bipartite) N() int { return g.n }

// M returns the number of query-nodes (pools).
func (g *Bipartite) M() int { return g.m }

// Row returns the distinct queries containing entry i (the set ∂*x_i),
// strictly increasing, in scratch[:0] (grown if its capacity is short),
// and the multiplicity with which i occurs in each, in
// [1, MaxMultiplicity]. The multiplicities alias the graph's storage and
// must not be modified.
func (g *Bipartite) Row(i int, scratch []int32) (queries []int32, mults []uint8) {
	lo, hi := g.eptr[i], g.eptr[i+1]
	if g.cells == nil {
		return append(scratch[:0], g.eqry[lo:hi]...), g.emul[lo:hi]
	}
	if cap(scratch) < int(hi-lo) {
		scratch = make([]int32, hi-lo)
	}
	queries = scratch[:hi-lo]
	k := 0
	cells, n := g.cells, g.n
	for b, at := 0, i; at < len(cells); b, at = b+1, at+n {
		for w := cells[at]; w != 0; w &= w - 1 {
			queries[k] = int32(b<<6 + bits.TrailingZeros64(w))
			k++
		}
	}
	return queries, g.emul[lo:hi]
}

// EntryQueries returns entry i's row as Row does. An index-stored graph
// returns its own storage; a bit-stored graph allocates the queries on
// every call, so code that reads many rows should call Row with scratch
// instead. Neither slice may be modified.
func (g *Bipartite) EntryQueries(i int) (queries []int32, mults []uint8) {
	if g.cells == nil {
		lo, hi := g.eptr[i], g.eptr[i+1]
		return g.eqry[lo:hi], g.emul[lo:hi]
	}
	return g.Row(i, make([]int32, 0, g.DistinctDegree(i)))
}

// Rows returns every entry's row at once: entry i's distinct queries are
// queries[ptr[i]:ptr[i+1]], strictly increasing, with multiplicities
// mults[ptr[i]:ptr[i+1]]. An index-stored graph returns its own storage;
// a bit-stored graph writes the queries into scratch (grown if its
// capacity is short), four bytes per pair, so code that sweeps every row
// many times reads the bits once. Only the returned queries of a
// bit-stored graph may be modified.
func (g *Bipartite) Rows(scratch []int32) (ptr []int64, queries []int32, mults []uint8) {
	if g.cells == nil {
		return g.eptr, g.eqry, g.emul
	}
	pairs := g.eptr[g.n]
	if int64(cap(scratch)) < pairs {
		scratch = make([]int32, pairs)
	}
	queries = scratch[:pairs]
	for i := 0; i < g.n; i++ {
		lo, hi := g.eptr[i], g.eptr[i+1]
		g.Row(i, queries[lo:lo:hi])
	}
	return g.eptr, queries, g.emul
}

// AddRow adds sign·A_ij to dst[j] for each query j of entry i: with sign
// 1 it scatters the entry's contribution to the m query results, with
// sign −1 it takes it back. len(dst) must be at least M().
func (g *Bipartite) AddRow(i int, dst []int64, sign int64) {
	mu := g.emul[g.eptr[i]:g.eptr[i+1]]
	if g.cells == nil {
		for k, j := range g.eqry[g.eptr[i]:g.eptr[i+1]] {
			dst[j] += sign * int64(mu[k])
		}
		return
	}
	k := 0
	cells, n := g.cells, g.n
	for b, at := 0, i; at < len(cells); b, at = b+1, at+n {
		for w := cells[at]; w != 0; w &= w - 1 {
			dst[b<<6+bits.TrailingZeros64(w)] += sign * int64(mu[k])
			k++
		}
	}
}

// Psi sets psi[i] to Ψ_i = Σ_{j ∈ ∂*x_i} y_j, the sum of y over entry i's
// distinct queries (multi-edges counted once), for every entry. The
// entries are split among up to workers goroutines (0 means GOMAXPROCS);
// graphs with fewer than 2^14 pairs run inline. Sums are exact int64
// arithmetic, so the result does not depend on the layout or the worker
// count. On a bit-stored graph each worker uses one 16 KB table of byte
// sums, so the scratch does not grow with m.
func (g *Bipartite) Psi(y, psi []int64, workers int) {
	if len(y) != g.m || len(psi) != g.n {
		panic(fmt.Sprintf("graph: Psi with %d results and %d sums for %d queries and %d entries", len(y), len(psi), g.m, g.n))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.DistinctPairs() < 1<<14 {
		workers = 1
	}
	workers = max(1, min(workers, g.n))
	if g.cells == nil {
		forRanges(g.n, 1, workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				var s int64
				for _, j := range g.eqry[g.eptr[i]:g.eptr[i+1]] {
					s += y[j]
				}
				psi[i] = s
			}
		})
		return
	}
	forRanges(g.n, 1, workers, func(_, lo, hi int) {
		g.psiCells(y, psi[lo:hi], lo)
	})
}

// psiCells sets out[k] to Ψ of entry lo+k on a bit-stored graph, one
// 64-query block at a time: it fills the block's table of the sum of y
// over every byte value at every byte position of the block's word, then
// adds eight lookups per entry. The one 16 KB table is refilled for each
// block, so it stays in L1 and its size does not grow with m.
func (g *Bipartite) psiCells(y, out []int64, lo int) {
	clear(out)
	t := new([8][256]int64)
	for b, at := 0, lo; at < len(g.cells); b, at = b+1, at+g.n {
		byteSums(t, y, b)
		for k, w := range g.cells[at : at+len(out)] {
			out[k] += t[0][w&0xff] + t[1][w>>8&0xff] + t[2][w>>16&0xff] + t[3][w>>24&0xff] +
				t[4][w>>32&0xff] + t[5][w>>40&0xff] + t[6][w>>48&0xff] + t[7][w>>56]
		}
	}
}

// byteSums fills t with the sums of y over the set bits of every byte
// value at each byte c of block b's word: t[c][v] = Σ_{bit k of v}
// y[64b + 8c + k], with queries at or past len(y) contributing 0. Each
// sum extends a smaller one by one term, so a table costs 255 additions.
func byteSums(t *[8][256]int64, y []int64, b int) {
	for c := range t {
		row := &t[c]
		for k := 0; k < 8; k++ {
			var v int64
			if j := b<<6 + c<<3 + k; j < len(y) {
				v = y[j]
			}
			half := 1 << k
			for x := 0; x < half; x++ {
				row[half+x] = row[x] + v
			}
		}
	}
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
	for _, mu := range g.emul[g.eptr[i]:g.eptr[i+1]] {
		s += int64(mu)
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
