// Package pooling constructs pooling designs: the random bipartite
// multigraphs that decide which signal entries each query pools.
//
// The paper's design ("random regular") has every query draw exactly
// Γ = n/2 entries uniformly at random *with replacement*; multi-edges are
// kept and contribute multiply to query results. Two alternative designs —
// Bernoulli and constant column weight — are provided for ablation
// benchmarks, plus a Fixed design for golden tests.
//
// All builders are deterministic functions of (n, m, seed): queries (or
// entries, for the column design) sample from private xoshiro256**
// streams seeded by rng.DeriveSeed(seed, position), so the result is
// identical no matter how many goroutines build it.
//
// Every builder hands graph.FromQueryRows a pure function from a query
// index to its row, and FromQueryRows asks for each row twice: once to
// validate it and count each entry's queries, once to write it at its
// place in the entry-side CSR. Rows come from private xoshiro256**
// streams (or the fixed lists), so both answers agree, and no build ever
// holds the query side next to the entry side. ConstantColumn samples per
// entry, so it writes the entry side directly.
//
// RandomRegular and Fixed rows come from counting, not sorting
// (countedRows): the query's draws are marked in a per-worker bitmap of
// ⌈n/64⌉ words and counted per entry, and the set bits are read out in
// increasing order as the query's entries, each with its count as the
// multiplicity. Per-worker scratch is O(Γ + n); for very sparse queries
// (Γ ≪ n/64) the bitmap walk costs more than sorting a handful of draws
// would, a trade no served workload hits.
package pooling

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"

	"pooleddata/internal/graph"
	"pooleddata/internal/rng"
)

// BuildOptions configures a design build.
type BuildOptions struct {
	// Seed is the master seed of the build. Two builds with equal
	// (design, n, m, Seed) produce identical graphs.
	Seed uint64
	// Parallelism bounds the number of worker goroutines; 0 means
	// runtime.GOMAXPROCS(0).
	Parallelism int
}

func (o BuildOptions) workers(items int) int {
	w := o.Parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Design produces pooling graphs for given problem sizes.
type Design interface {
	// Name identifies the design in experiment output.
	Name() string
	// Build constructs the bipartite multigraph with n entries and m
	// queries.
	Build(n, m int, opts BuildOptions) (*graph.Bipartite, error)
}

// forRanges splits [0, items) into one contiguous range per worker, runs
// body(w, lo, hi) for worker w's range on its own goroutine, and waits
// for every call to return.
func forRanges(items int, opts BuildOptions, body func(w, lo, hi int)) {
	workers := opts.workers(items)
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

// countedRows returns the row function of the graph whose query j is the
// multiset of entries that draw(j, buf) writes into buf (of length
// maxDraws) and returns; draw must be a pure function of j. The row marks
// each draw in a seen-bitmap and counts it in a per-entry counter, then
// reads the bitmap's set bits out in increasing order as the query's
// entries, taking (and clearing) each one's count as its multiplicity.
// Each worker owns O(maxDraws + n) scratch, and no query allocates.
func countedRows(n, maxDraws int, draw func(j int, buf []int32) []int32) func() graph.RowFunc {
	return func() graph.RowFunc {
		buf := make([]int32, maxDraws)
		seen := make([]uint64, (n+63)/64)
		count := make([]int32, n)
		ent := make([]int32, min(maxDraws, n))
		mul := make([]int32, min(maxDraws, n))
		return func(j int) ([]int32, []int32, error) {
			for _, e := range draw(j, buf) {
				seen[e>>6] |= 1 << (e & 63)
				count[e]++
			}
			d := 0
			for i, x := range seen {
				for ; x != 0; x &= x - 1 {
					e := int32(i<<6 + bits.TrailingZeros64(x))
					ent[d], mul[d] = e, count[e]
					count[e] = 0
					d++
				}
				seen[i] = 0
			}
			return ent[:d], mul[:d], nil
		}
	}
}

// RandomRegular is the paper's pooling design: each query independently
// draws Gamma entries uniformly at random with replacement.
type RandomRegular struct {
	// Gamma is the query size; 0 means the paper's default ⌈n/2⌉. Build
	// refuses a Gamma above graph.MaxMultiplicity·n, which would draw
	// some entry more often than a graph can store.
	Gamma int
}

// Name implements Design.
func (d RandomRegular) Name() string { return "random-regular" }

// GammaFor returns the query size used for signal length n.
func (d RandomRegular) GammaFor(n int) int {
	if d.Gamma > 0 {
		return d.Gamma
	}
	return (n + 1) / 2
}

// Build implements Design.
func (d RandomRegular) Build(n, m int, opts BuildOptions) (*graph.Bipartite, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("pooling: invalid size n=%d m=%d", n, m)
	}
	gamma := d.GammaFor(n)
	// Pigeonhole: with Γ > MaxMultiplicity·n (tested so that it cannot
	// overflow), every query draws some entry more often than a graph can
	// store, so refuse before allocating the draws.
	if m > 0 && (gamma-1)/graph.MaxMultiplicity >= n {
		return nil, fmt.Errorf("pooling: query size %d over n=%d entries draws some entry more than %d times, the multiplicity limit",
			gamma, n, graph.MaxMultiplicity)
	}
	return graph.FromQueryRows(n, m, opts.workers(m), countedRows(n, gamma, func(j int, draws []int32) []int32 {
		r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(opts.Seed, uint64(j))))
		for t := range draws {
			draws[t] = int32(r.Uint64n(uint64(n)))
		}
		return draws
	}))
}

// Bernoulli is the i.i.d. design: each (entry, query) pair is connected by
// a single edge independently with probability P. No multi-edges.
type Bernoulli struct {
	// P is the inclusion probability; 0 means 1/2, which matches the
	// expected query size of the paper's design.
	P float64
}

// Name implements Design.
func (d Bernoulli) Name() string { return "bernoulli" }

func (d Bernoulli) prob() float64 {
	if d.P > 0 {
		return d.P
	}
	return 0.5
}

// Build implements Design.
func (d Bernoulli) Build(n, m int, opts BuildOptions) (*graph.Bipartite, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("pooling: invalid size n=%d m=%d", n, m)
	}
	p := d.prob()
	if p >= 1 {
		return nil, fmt.Errorf("pooling: Bernoulli probability %v must be < 1", p)
	}
	lq := math.Log1p(-p)
	return graph.FromQueryRows(n, m, opts.workers(m), func() graph.RowFunc {
		var ent []int32
		ones := make([]int32, n)
		for i := range ones {
			ones[i] = 1
		}
		return func(j int) ([]int32, []int32, error) {
			r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(opts.Seed, uint64(j))))
			ent = ent[:0]
			// Geometric skip sampling: visit exactly the included entries.
			i := 0
			for {
				u := r.Float64()
				if u <= 0 {
					u = math.SmallestNonzeroFloat64
				}
				skip := int(math.Log(u) / lq)
				i += skip
				if i >= n {
					break
				}
				ent = append(ent, int32(i))
				i++
			}
			return ent, ones[:len(ent)], nil
		}
	})
}

// ConstantColumn gives every entry exactly D distinct queries, chosen
// uniformly without replacement — the near-regular column design common in
// group testing. No multi-edges.
type ConstantColumn struct {
	// D is the per-entry degree; 0 means round(γ·m), matching the
	// expected distinct degree Δ* of the paper's design.
	D int
}

// Name implements Design.
func (d ConstantColumn) Name() string { return "constant-column" }

// DFor returns the per-entry degree used with m queries.
func (d ConstantColumn) DFor(m int) int {
	if d.D > 0 {
		return d.D
	}
	v := int(math.Round(graph.Gamma * float64(m)))
	if v < 1 {
		v = 1
	}
	if v > m {
		v = m
	}
	return v
}

// Build implements Design.
func (d ConstantColumn) Build(n, m int, opts BuildOptions) (*graph.Bipartite, error) {
	if n <= 0 || m < 0 {
		return nil, fmt.Errorf("pooling: invalid size n=%d m=%d", n, m)
	}
	deg := 0
	if m > 0 {
		deg = d.DFor(m)
	}
	// Sample entry-side in parallel: entry i picks deg distinct queries,
	// in increasing order, which is exactly its row.
	eptr := make([]int64, n+1)
	for i := range eptr {
		eptr[i] = int64(i) * int64(deg)
	}
	eqry := make([]int32, eptr[n])
	emul := make([]uint8, eptr[n])
	forRanges(n, opts, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(opts.Seed, uint64(i))))
			row := eqry[eptr[i]:eptr[i+1]]
			for p, q := range r.SampleK(m, deg) {
				row[p] = int32(q)
			}
		}
	})
	for p := range emul {
		emul[p] = 1
	}
	return graph.FromEntrySide(m, eptr, eqry, emul)
}

// Fixed wraps an explicit query list: Queries[j] is the multiset of
// entries pooled by query j (duplicates allowed, any order). Used for
// golden tests such as the paper's Fig. 1 example.
type Fixed struct {
	Queries [][]int
}

// Name implements Design.
func (d Fixed) Name() string { return "fixed" }

// Build implements Design. n must cover every referenced entry; m must
// equal len(d.Queries).
func (d Fixed) Build(n, m int, opts BuildOptions) (*graph.Bipartite, error) {
	if n < 0 {
		return nil, fmt.Errorf("pooling: invalid size n=%d", n)
	}
	if m != len(d.Queries) {
		return nil, fmt.Errorf("pooling: Fixed has %d queries, Build asked for %d", len(d.Queries), m)
	}
	maxDraws := 0
	for j, q := range d.Queries {
		for _, e := range q {
			if e < 0 || e >= n {
				return nil, fmt.Errorf("pooling: Fixed query %d references entry %d outside [0,%d)", j, e, n)
			}
		}
		maxDraws = max(maxDraws, len(q))
	}
	return graph.FromQueryRows(n, m, opts.workers(m), countedRows(n, maxDraws, func(j int, buf []int32) []int32 {
		buf = buf[:len(d.Queries[j])]
		for t, e := range d.Queries[j] {
			buf[t] = int32(e)
		}
		return buf
	}))
}
