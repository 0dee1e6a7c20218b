// Package mn implements the Maximum Neighborhood (MN) Algorithm — the
// paper's core contribution (Algorithm 1).
//
// Given the pooling graph G and the query results y, the decoder computes
// for every entry x_i
//
//	Ψ_i  = Σ_{j ∈ ∂*x_i} y_j   (query results over *distinct* neighboring
//	                            queries — multi-edges counted once)
//	Δ*_i = |∂*x_i|             (number of distinct neighboring queries)
//
// and ranks the coordinates by the centralized score Ψ_i − Δ*_i·k/2. The k
// highest-scoring coordinates are declared ones. Theorem 1 shows this
// succeeds w.h.p. once m ≥ (1+ε)·m_MN(n,θ).
//
// The bulk phase is the parallel product Ψ = M·y (§I "Parallelized
// Reconstruction"; Δ* = M·1 is each entry's distinct degree, which the
// graph stores) and the ranking is a parallel selection, so the decoder
// itself scales across cores.
package mn

import (
	"fmt"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/parsort"
)

// Options tunes the decoder.
type Options struct {
	// Workers bounds the goroutine pool for the SpMV phase; 0 means
	// GOMAXPROCS.
	Workers int
	// KeepScores retains the per-entry diagnostics (Ψ, Δ*, scores) on the
	// Result; experiments that only need the estimate can skip the copy.
	KeepScores bool
}

// Result is the decoder output.
type Result struct {
	// Estimate is the reconstructed signal: exactly k ones.
	Estimate *bitvec.Vector
	// Scores, Psi, DistinctDeg are per-entry diagnostics, present only
	// when Options.KeepScores is set.
	Scores      []float64
	Psi         []int64
	DistinctDeg []int64
}

// Reconstruct runs the MN-Algorithm on a prebuilt design graph and its
// query results, assuming the Hamming weight k is known (the paper shows
// one extra all-entries query removes this assumption; see EstimateK).
// It panics if len(y) != g.M() or k is outside [0, g.N()].
func Reconstruct(g *graph.Bipartite, y []int64, k int, opts Options) *Result {
	if len(y) != g.M() {
		panic(fmt.Sprintf("mn: %d query results for %d queries", len(y), g.M()))
	}
	n := g.N()
	if k < 0 || k > n {
		panic(fmt.Sprintf("mn: weight k=%d out of [0,%d]", k, n))
	}

	// Ψ = M·y with M the unweighted entry-side adjacency: multi-edges
	// collapse to a single 1, so each neighboring query's result counts
	// once, exactly as Algorithm 1 line 5 demands. The graph sums it over
	// whichever layout it stores (graph.Bipartite.Psi), on the workers.
	psi := make([]int64, n)
	g.Psi(y, psi, opts.Workers)
	scores := make([]float64, n)
	halfK := float64(k) / 2
	var distinct []int64
	if opts.KeepScores {
		distinct = make([]int64, n)
	}
	for i, p := range psi {
		d := int64(g.DistinctDegree(i))
		if distinct != nil {
			distinct[i] = d
		}
		scores[i] = float64(p) - float64(d)*halfK
	}

	top := parsort.TopK(scores, k)
	est := bitvec.New(n)
	for _, i := range top {
		est.Set(int(i))
	}

	res := &Result{Estimate: est}
	if opts.KeepScores {
		res.Scores = scores
		res.Psi = psi
		res.DistinctDeg = distinct
	}
	return res
}

// ReconstructSequential is the textbook single-threaded rendition of
// Algorithm 1, kept as a differential-testing twin for the parallel path.
func ReconstructSequential(g *graph.Bipartite, y []int64, k int) *bitvec.Vector {
	if len(y) != g.M() {
		panic(fmt.Sprintf("mn: %d query results for %d queries", len(y), g.M()))
	}
	n := g.N()
	if k < 0 || k > n {
		panic(fmt.Sprintf("mn: weight k=%d out of [0,%d]", k, n))
	}
	scores := make([]float64, n)
	var scratch []int32
	for i := 0; i < n; i++ {
		qs, _ := g.Row(i, scratch) // distinct queries of x_i
		scratch = qs
		var psi int64
		for _, j := range qs {
			psi += y[j]
		}
		scores[i] = float64(psi) - float64(len(qs))*float64(k)/2
	}
	// Stable ranking: score descending, index ascending.
	idx := parsort.SortDesc(scores)
	est := bitvec.New(n)
	for _, i := range idx[:k] {
		est.Set(int(i))
	}
	return est
}

// EstimateK returns the Hamming weight revealed by one additional query
// that pools every entry exactly once — the paper's device for removing
// the decoder's dependence on prior knowledge of k (§I.C). In the
// simulator this is simply the weight of σ, but routing it through the
// oracle keeps the information flow honest: the decoder sees only query
// results.
func EstimateK(sigma *bitvec.Vector) int {
	// An all-entries additive query returns Σ_i σ(i) = k exactly.
	return sigma.Weight()
}
