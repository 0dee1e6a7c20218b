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
// entries, for the column design) sample from private SplitMix-derived
// streams indexed by their own position, so the result is identical no
// matter how many goroutines build it.
package pooling

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// compressDraws sorts raw draws in place and collapses runs into exactly
// sized (distinct entry, multiplicity) slices.
func compressDraws(draws []int32) (ent, mul []int32) {
	slices.Sort(draws)
	distinct := 0
	for i := range draws {
		if i == 0 || draws[i] != draws[i-1] {
			distinct++
		}
	}
	ent = make([]int32, 0, distinct)
	mul = make([]int32, 0, distinct)
	for i := 0; i < len(draws); {
		j := i + 1
		for j < len(draws) && draws[j] == draws[i] {
			j++
		}
		ent = append(ent, draws[i])
		mul = append(mul, int32(j-i))
		i = j
	}
	return ent, mul
}

// assemble concatenates per-query compressed lists into graph CSR form,
// releasing each list once copied (ents and muls are consumed).
func assemble(n int, ents, muls [][]int32) (*graph.Bipartite, error) {
	m := len(ents)
	qptr := make([]int64, m+1)
	for j := 0; j < m; j++ {
		qptr[j+1] = qptr[j] + int64(len(ents[j]))
	}
	qent := make([]int32, qptr[m])
	qmul := make([]int32, qptr[m])
	for j := 0; j < m; j++ {
		copy(qent[qptr[j]:], ents[j])
		copy(qmul[qptr[j]:], muls[j])
		// A collection during the copy or graph.New must not find both
		// forms live: its heap goal would then let the service grow to
		// three times the graph's size before the next one.
		ents[j], muls[j] = nil, nil
	}
	return graph.New(n, qptr, qent, qmul)
}

// buildPerQuery runs sample(j, r, scratch) for every query j in
// parallel, where sample must fill and return the compressed (entries,
// mults) of query j using only r, which is a stream private to query j.
// scratch is a buffer of scratchLen values owned by the calling worker
// and reused across its queries, so sample may overwrite it but must not
// return it.
func buildPerQuery(n, m, scratchLen int, opts BuildOptions, sample func(j int, r *rng.Rand, scratch []int32) ([]int32, []int32)) (*graph.Bipartite, error) {
	ents := make([][]int32, m)
	muls := make([][]int32, m)
	workers := opts.workers(m)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * m / workers
		hi := (w + 1) * m / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			scratch := make([]int32, scratchLen)
			for j := lo; j < hi; j++ {
				r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(opts.Seed, uint64(j))))
				ents[j], muls[j] = sample(j, r, scratch)
			}
		}(lo, hi)
	}
	wg.Wait()
	return assemble(n, ents, muls)
}

// RandomRegular is the paper's pooling design: each query independently
// draws Gamma entries uniformly at random with replacement.
type RandomRegular struct {
	// Gamma is the query size; 0 means the paper's default ⌈n/2⌉.
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
	return buildPerQuery(n, m, gamma, opts, func(j int, r *rng.Rand, draws []int32) ([]int32, []int32) {
		for t := range draws {
			draws[t] = int32(r.Uint64n(uint64(n)))
		}
		return compressDraws(draws)
	})
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
	return buildPerQuery(n, m, 0, opts, func(j int, r *rng.Rand, _ []int32) ([]int32, []int32) {
		var ent, mul []int32
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
			mul = append(mul, 1)
			i++
		}
		return ent, mul
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
	if m == 0 {
		return assemble(n, nil, nil)
	}
	deg := d.DFor(m)
	// Sample entry-side in parallel: entry i picks deg distinct queries.
	cols := make([][]int, n)
	workers := opts.workers(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(opts.Seed, uint64(i))))
				cols[i] = r.SampleK(m, deg)
			}
		}(lo, hi)
	}
	wg.Wait()
	// Transpose to query-side CSR. Entries are visited in increasing i, so
	// each query's list is automatically strictly increasing.
	qlen := make([]int, m)
	for _, qs := range cols {
		for _, q := range qs {
			qlen[q]++
		}
	}
	ents := make([][]int32, m)
	muls := make([][]int32, m)
	for j := 0; j < m; j++ {
		ents[j] = make([]int32, 0, qlen[j])
		muls[j] = make([]int32, 0, qlen[j])
	}
	for i, qs := range cols {
		for _, q := range qs {
			ents[q] = append(ents[q], int32(i))
			muls[q] = append(muls[q], 1)
		}
	}
	return assemble(n, ents, muls)
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
func (d Fixed) Build(n, m int, _ BuildOptions) (*graph.Bipartite, error) {
	if m != len(d.Queries) {
		return nil, fmt.Errorf("pooling: Fixed has %d queries, Build asked for %d", len(d.Queries), m)
	}
	ents := make([][]int32, m)
	muls := make([][]int32, m)
	for j, q := range d.Queries {
		draws := make([]int32, len(q))
		for t, e := range q {
			if e < 0 || e >= n {
				return nil, fmt.Errorf("pooling: Fixed query %d references entry %d outside [0,%d)", j, e, n)
			}
			draws[t] = int32(e)
		}
		ents[j], muls[j] = compressDraws(draws)
	}
	return assemble(n, ents, muls)
}
