// Package threshgt implements reconstruction from *threshold* queries —
// the open problem the paper's conclusions single out (§VI): a query
// returns 1 iff the number of one-entries in the pool reaches a threshold
// T ≥ 1. T = 1 recovers classical binary group testing.
//
// The package provides the classical group-testing decoders COMP and DD
// for T = 1 and an MN-style scoring decoder for general T, plus the
// design guidance that makes threshold queries informative: unlike the
// additive oracle, a threshold query carries at most one bit, so pools
// must be sized such that the count straddles T (Γ = Θ(T·n/k) rather than
// the additive design's n/2).
package threshgt

import (
	"fmt"
	"math"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/parsort"
)

// RecommendedGamma returns a pool size that keeps threshold-T queries
// informative for weight-k signals of length n: the expected pool count
// k·Γ/n sits near the threshold. For T = 1 this is the classical
// ln2·(n/k) of binary group testing.
func RecommendedGamma(n, k, T int) int {
	if k < 1 {
		k = 1
	}
	var g float64
	if T <= 1 {
		g = math.Ln2 * float64(n) / float64(k)
	} else {
		g = float64(T) * float64(n) / float64(k)
	}
	gi := int(math.Round(g))
	if gi < 1 {
		gi = 1
	}
	if gi > n {
		gi = n
	}
	return gi
}

func validate(g *graph.Bipartite, y []int64, k int) error {
	if len(y) != g.M() {
		return fmt.Errorf("threshgt: %d results for %d queries", len(y), g.M())
	}
	if k < 0 || k > g.N() {
		return fmt.Errorf("threshgt: weight k=%d out of [0,%d]", k, g.N())
	}
	for j, v := range y {
		if v != 0 && v != 1 {
			return fmt.Errorf("threshgt: result %d of query %d is not binary", v, j)
		}
	}
	return nil
}

// COMP is the Combinatorial Orthogonal Matching Pursuit rule for T = 1:
// every entry of a negative pool is zero; among the never-excluded
// entries the k with the most positive-pool memberships are declared one.
// COMP never misses a true one-entry (σ(i) = 1 ⇒ i is never excluded),
// so its errors are false positives only.
type COMP struct{}

// Name identifies the decoder.
func (COMP) Name() string { return "comp" }

// Decode reconstructs from binary (T = 1) query results.
func (COMP) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n := g.N()
	negatives := negativePools(g, y)
	scores := make([]float64, n)
	for i, neg := range negatives {
		if neg > 0 {
			scores[i] = math.Inf(-1)
		} else {
			scores[i] = float64(g.DistinctDegree(i))
		}
	}
	est := bitvec.New(n)
	for _, i := range parsort.TopK(scores, k) {
		est.Set(int(i))
	}
	return est, nil
}

// DD is the Definite Defectives rule for T = 1: after COMP's exclusion,
// an entry is *definitely* one if some positive pool contains no other
// unexcluded entry. DD never produces a false positive; its output may
// have weight below k.
type DD struct{}

// Name identifies the decoder.
func (DD) Name() string { return "dd" }

// Decode reconstructs from binary (T = 1) query results. The estimate
// contains only entries provably one; it may have fewer than k ones.
func (DD) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n := g.N()
	negatives := negativePools(g, y)
	// Scatter the unexcluded entries into their pools: count[j] (capped
	// at 2) of them sit in pool j, the last one seen being only[j].
	count := make([]uint8, g.M())
	only := make([]int32, g.M())
	var scratch []int32
	for i, neg := range negatives {
		if neg > 0 {
			continue
		}
		qs, _ := g.Row(i, scratch)
		scratch = qs
		for _, j := range qs {
			if count[j] < 2 {
				count[j]++
				only[j] = int32(i)
			}
		}
	}
	est := bitvec.New(n)
	for j, c := range count {
		if c == 1 && y[j] == 1 {
			est.Set(int(only[j]))
		}
	}
	return est, nil
}

// negativePools returns, for every entry, how many of its distinct pools
// tested negative: Ψ over the indicator of y_j = 0. An entry of a
// negative pool is zero (for T = 1).
func negativePools(g *graph.Bipartite, y []int64) []int64 {
	neg := make([]int64, len(y))
	for j, v := range y {
		if v == 0 {
			neg[j] = 1
		}
	}
	out := make([]int64, g.N())
	g.Psi(neg, out, 1)
	return out
}

// Scored is the MN-style decoder for general thresholds: rank entries by
// the number of positive distinct pools they belong to, centralized by
// the global positive rate, and take the top k. For T = 1 it degrades
// gracefully to a soft COMP.
type Scored struct{}

// Name identifies the decoder.
func (Scored) Name() string { return "threshold-mn" }

// Decode reconstructs from threshold query results for any T.
func (Scored) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n, m := g.N(), g.M()
	base := 0.0
	for _, v := range y {
		base += float64(v)
	}
	if m > 0 {
		base /= float64(m)
	}
	// Ψ over binary results counts each entry's positive distinct pools.
	pos := make([]int64, n)
	g.Psi(y, pos, 1)
	scores := make([]float64, n)
	for i, p := range pos {
		// Positive-pool surplus relative to the base rate.
		scores[i] = float64(p) - float64(g.DistinctDegree(i))*base
	}
	est := bitvec.New(n)
	for _, i := range parsort.TopK(scores, k) {
		est.Set(int(i))
	}
	return est, nil
}
