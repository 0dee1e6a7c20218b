// Package decoder implements the reconstruction algorithms the paper
// compares against, behind a single Decoder interface:
//
//   - MN: the paper's Maximum Neighborhood algorithm (wrapping internal/mn).
//   - Exhaustive: the information-theoretic decoder — enumerate all
//     weight-k signals consistent with (G, y). This is the decoder implicit
//     in Theorem 2 ("we can always reconstruct σ ... via an exhaustive
//     search"); it also counts Z_k(G,y), the number of consistent signals,
//     which the information-theoretic experiments measure directly.
//   - Greedy: an OMP-style peeling decoder (pick the entry best correlated
//     with the residual, subtract, repeat) standing in for the matching-
//     pursuit family of §I.B.
//   - BP: a Gaussian-approximation belief propagation decoder standing in
//     for the AMP/graph-code family (Alaoui et al., Karimi et al.).
//   - Refined: MN followed by local swap refinement against the residual.
//
// All decoders see only (G, y, k) — never the ground truth.
package decoder

import (
	"errors"
	"fmt"
	"math"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/mn"
	"pooleddata/internal/parsort"
	"pooleddata/internal/query"
)

// Decoder reconstructs a weight-k signal from a design and its results.
type Decoder interface {
	// Name identifies the decoder in experiment output.
	Name() string
	// Decode returns an estimate of the hidden signal. Implementations
	// must not modify y.
	Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error)
}

func validate(g *graph.Bipartite, y []int64, k int) error {
	if len(y) != g.M() {
		return fmt.Errorf("decoder: %d results for %d queries", len(y), g.M())
	}
	if k < 0 || k > g.N() {
		return fmt.Errorf("decoder: weight k=%d out of [0,%d]", k, g.N())
	}
	return nil
}

// Predict returns the response vector the additive oracle would produce
// for the candidate signal est on design g: query.Counts, an O(k·Δ*)
// scatter over est's support, not a pass over every incidence of the
// design.
func Predict(g *graph.Bipartite, est *bitvec.Vector) []int64 {
	return query.Counts(g, est)
}

// Residual returns the L1 misfit Σ_j |y_j − ŷ_j| of a candidate signal.
// A candidate is consistent with the observations iff this is zero.
func Residual(g *graph.Bipartite, est *bitvec.Vector, y []int64) int64 {
	pred := Predict(g, est)
	var s int64
	for j := range y {
		d := y[j] - pred[j]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// Consistent reports whether est reproduces every query result exactly.
func Consistent(g *graph.Bipartite, est *bitvec.Vector, y []int64) bool {
	return Residual(g, est, y) == 0
}

// MN adapts the core algorithm to the Decoder interface.
type MN struct {
	// Workers bounds the SpMV pool; 0 means GOMAXPROCS.
	Workers int
}

// Name implements Decoder.
func (MN) Name() string { return "mn" }

// Decode implements Decoder.
func (d MN) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	return mn.Reconstruct(g, y, k, mn.Options{Workers: d.Workers}).Estimate, nil
}

// ErrSearchSpaceTooLarge is returned by Exhaustive when C(n,k) exceeds the
// configured budget.
var ErrSearchSpaceTooLarge = errors.New("decoder: exhaustive search space exceeds budget")

// ErrInconsistent is returned when no weight-k signal reproduces y (only
// possible with noisy observations).
var ErrInconsistent = errors.New("decoder: no weight-k signal is consistent with the results")

// Exhaustive is the unbounded-computation decoder of Theorem 2. It
// enumerates weight-k signals in lexicographic order with branch-and-bound
// pruning on the query residuals and returns the first consistent one.
type Exhaustive struct {
	// MaxNodes bounds the number of search tree nodes visited; 0 means
	// 50 million. The decoder fails with ErrSearchSpaceTooLarge beyond it.
	MaxNodes int64
}

// Name implements Decoder.
func (Exhaustive) Name() string { return "exhaustive" }

// Decode implements Decoder.
func (d Exhaustive) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	first, _, err := d.search(g, y, k, 1)
	if err != nil {
		return nil, err
	}
	if first == nil {
		return nil, ErrInconsistent
	}
	return first, nil
}

// CountConsistent returns Z_k(G,y) — the number of weight-k signals
// consistent with the results — up to limit (0 means unlimited except by
// MaxNodes). The first consistent signal found is returned alongside.
// Counting Z_k is how the information-theoretic experiments decide whether
// the instance is uniquely decodable.
func (d Exhaustive) CountConsistent(g *graph.Bipartite, y []int64, k int, limit int64) (*bitvec.Vector, int64, error) {
	return d.search(g, y, k, limit)
}

func (d Exhaustive) search(g *graph.Bipartite, y []int64, k int, limit int64) (*bitvec.Vector, int64, error) {
	if err := validate(g, y, k); err != nil {
		return nil, 0, err
	}
	n, m := g.N(), g.M()
	budget := d.MaxNodes
	if budget <= 0 {
		budget = 50_000_000
	}
	residual := make([]int64, m)
	copy(residual, y)
	// remCap[i][j] would be the max the suffix can still add; instead use
	// cheap pruning: a branch dies when any residual goes negative, or
	// when fewer than (needed) entries remain.
	chosen := make([]int, 0, k)
	var first *bitvec.Vector
	var count int64
	var nodes int64

	var rec func(start, left int) error
	rec = func(start, left int) error {
		nodes++
		if nodes > budget {
			return ErrSearchSpaceTooLarge
		}
		if left == 0 {
			for j := 0; j < m; j++ {
				if residual[j] != 0 {
					return nil
				}
			}
			count++
			if first == nil {
				first = bitvec.FromIndices(n, chosen)
			}
			return nil
		}
		for i := start; i <= n-left; i++ {
			qs, mu := g.EntryQueries(i)
			ok := true
			for p, j := range qs {
				residual[j] -= int64(mu[p])
				if residual[j] < 0 {
					ok = false
				}
			}
			if ok {
				chosen = append(chosen, i)
				if err := rec(i+1, left-1); err != nil {
					return err
				}
				chosen = chosen[:len(chosen)-1]
				if limit > 0 && count >= limit {
					// Undo and abort: caller only needs "at least limit".
					for p, j := range qs {
						residual[j] += int64(mu[p])
					}
					return nil
				}
			}
			for p, j := range qs {
				residual[j] += int64(mu[p])
			}
		}
		return nil
	}
	if err := rec(0, k); err != nil {
		return nil, count, err
	}
	return first, count, nil
}

// Greedy is the OMP-style peeling decoder: k rounds, each selecting the
// entry whose distinct-neighborhood residual sum is largest (centralized
// by degree, mirroring the MN score), then subtracting the entry's exact
// contribution from the residual.
type Greedy struct{}

// Name implements Decoder.
func (Greedy) Name() string { return "greedy-omp" }

// Decode implements Decoder.
func (Greedy) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n := g.N()
	residual := make([]int64, len(y))
	copy(residual, y)
	est := bitvec.New(n)
	// remaining[i] tracks how many picks are still pending; simple linear
	// scans keep this O(k·(n + E/m·deg)) which is fine at experiment scale.
	for round := 0; round < k; round++ {
		bestIdx := -1
		bestScore := math.Inf(-1)
		for i := 0; i < n; i++ {
			if est.Get(i) {
				continue
			}
			qs, _ := g.EntryQueries(i)
			var s int64
			for _, j := range qs {
				s += residual[j]
			}
			// Centralize by the residual weight left in the neighborhood:
			// score = Ψ_i^res − Δ*_i·(k−round)/2.
			score := float64(s) - float64(len(qs))*float64(k-round)/2
			if score > bestScore || (score == bestScore && bestIdx >= 0 && i < bestIdx) {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		est.Set(bestIdx)
		qs, mu := g.EntryQueries(bestIdx)
		for p, j := range qs {
			residual[j] -= int64(mu[p])
		}
	}
	return est, nil
}

// Refined runs MN and then hill-climbs with single swaps (drop a selected
// entry, add an unselected one) as long as the L1 residual strictly
// decreases. Swap candidates are limited to the highest-scoring
// non-selected entries to keep each pass near-linear.
type Refined struct {
	// MaxPasses bounds the number of full swap sweeps; 0 means 8.
	MaxPasses int
	// CandidatePool is the number of top non-selected entries considered
	// for insertion; 0 means 4k (at least 32).
	CandidatePool int
}

// Name implements Decoder.
func (Refined) Name() string { return "mn-refined" }

// Decode implements Decoder.
func (d Refined) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	res := mn.Reconstruct(g, y, k, mn.Options{KeepScores: true})
	est := res.Estimate
	if k == 0 || k == g.N() {
		return est, nil
	}
	pool := d.CandidatePool
	if pool <= 0 {
		pool = 4 * k
		if pool < 32 {
			pool = 32
		}
	}
	passes := d.MaxPasses
	if passes <= 0 {
		passes = 8
	}

	// Per-query predicted responses for the current estimate, kept up to
	// date across swaps.
	pred := Predict(g, est)
	misfit := int64(0)
	for j := range y {
		misfit += abs64(y[j] - pred[j])
	}
	if misfit == 0 {
		return est, nil
	}

	// Candidate insertions: best-scoring zeros. Candidate removals: all
	// current ones (k of them). At most k of the top k+pool scores are
	// selected entries, so that prefix always yields pool candidates —
	// no need to rank all n scores.
	top := k + pool
	if top > g.N() {
		top = g.N()
	}
	order := parsort.TopKDesc(res.Scores, top)
	candIn := make([]int, 0, pool)
	for _, i := range order {
		if !est.Get(int(i)) {
			candIn = append(candIn, int(i))
			if len(candIn) == pool {
				break
			}
		}
	}

	// outAdj[j] is the multiplicity of the current removal candidate in
	// query j and outMask its packed membership over queries, both filled
	// (and cleared) once per candidate so each swapDelta is O(deg(in))
	// instead of O(deg(out) + deg(in)): the removal half of the delta is
	// identical for every insertion candidate and hoisted out of the
	// candidate loop, and the insertion half tests "does out touch query
	// j" with one word-indexed bit instead of a dense int64 load.
	outAdj := make([]int64, g.M())
	outMask := bitvec.New(g.M())
	for pass := 0; pass < passes && misfit > 0; pass++ {
		improved := false
		ones := est.Support()
		for _, out := range ones {
			qsOut, muOut := g.EntryQueries(out)
			var removeDelta int64
			for p, j := range qsOut {
				outAdj[j] = int64(muOut[p])
				outMask.Set(int(j))
				before := abs64(y[j] - pred[j])
				after := abs64(y[j] - (pred[j] - int64(muOut[p])))
				removeDelta += after - before
			}
			for ci, in := range candIn {
				if in < 0 || est.Get(in) {
					continue
				}
				delta := removeDelta + insertDelta(g, y, pred, outAdj, outMask.Words(), in)
				if delta < 0 {
					// Commit the swap.
					qsIn, muIn := g.EntryQueries(in)
					for p, j := range qsOut {
						pred[j] -= int64(muOut[p])
					}
					for p, j := range qsIn {
						pred[j] += int64(muIn[p])
					}
					est.Clear(out)
					est.Set(in)
					candIn[ci] = out // the removed entry becomes a candidate
					misfit += delta
					improved = true
					break
				}
			}
			for _, j := range qsOut {
				outAdj[j] = 0
				outMask.Clear(int(j))
			}
			if misfit == 0 {
				break
			}
		}
		if !improved {
			break
		}
	}
	return est, nil
}

// insertDelta returns the change in L1 misfit contributed by adding
// entry in, on top of an already-applied removal described by outAdj
// (the removed entry's dense per-query multiplicity) and outWords (its
// packed query membership). The word-indexed bit test keeps the common
// disjoint-neighborhood case to one load per query, reading outAdj only
// where the two neighborhoods actually intersect.
func insertDelta(g *graph.Bipartite, y, pred, outAdj []int64, outWords []uint64, in int) int64 {
	var delta int64
	qsIn, muIn := g.EntryQueries(in)
	for p, j := range qsIn {
		// If j is also touched by out, account on top of the removal.
		var adj int64
		if outWords[j>>6]&(1<<(uint(j)&63)) != 0 {
			adj = outAdj[j]
		}
		before := abs64(y[j] - (pred[j] - adj))
		after := abs64(y[j] - (pred[j] - adj + int64(muIn[p])))
		delta += after - before
	}
	return delta
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
