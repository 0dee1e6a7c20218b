package mn

import (
	"fmt"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/parsort"
	"pooleddata/internal/query"
)

// Incremental is the MN-Algorithm restructured for the partially-parallel
// regime of §VI: when only L processing units exist, query results arrive
// in rounds of L, and the decoder maintains its neighborhood sums across
// rounds, adding each batch's results as they come. The graph keeps no
// query-indexed copy, so absorbing a batch is one sweep over the entry
// side (the cost of one Ψ pass), whatever the batch size. Combined with a
// consistency check this enables early stopping: the lab can halt the
// remaining rounds as soon as the current estimate explains all results
// received so far.
//
// The scores after every batch are identical to running Reconstruct on
// the prefix of answered queries (the design stays non-adaptive; only the
// schedule is staged).
type Incremental struct {
	g        *graph.Bipartite
	round    []int32 // round[j]: the batch that answered query j, 0 if none
	result   []int64 // result[j]: query j's answer, once answered
	psi      []int64 // Ψ_i over answered queries
	distinct []int64 // Δ*_i over answered queries
	rounds   int32
	count    int
}

// NewIncremental prepares an incremental decoder for design g.
func NewIncremental(g *graph.Bipartite) *Incremental {
	return &Incremental{
		g:        g,
		round:    make([]int32, g.M()),
		result:   make([]int64, g.M()),
		psi:      make([]int64, g.N()),
		distinct: make([]int64, g.N()),
	}
}

// Answered returns how many query results have been absorbed.
func (inc *Incremental) Answered() int { return inc.count }

// AddBatch absorbs the results of one round: queries[i] answered with
// results[i]. It panics on duplicate or out-of-range query indices
// (duplicate measurement of a pool indicates a pipeline bug).
func (inc *Incremental) AddBatch(queries []int, results []int64) {
	if len(queries) != len(results) {
		panic(fmt.Sprintf("mn: %d queries with %d results", len(queries), len(results)))
	}
	inc.rounds++
	for i, j := range queries {
		if j < 0 || j >= inc.g.M() {
			panic(fmt.Sprintf("mn: query %d outside [0,%d)", j, inc.g.M()))
		}
		if inc.round[j] != 0 {
			panic(fmt.Sprintf("mn: query %d answered twice", j))
		}
		inc.round[j] = inc.rounds
		inc.result[j] = results[i]
		inc.count++
	}
	for e := range inc.psi {
		qs, _ := inc.g.EntryQueries(e)
		for _, j := range qs {
			if inc.round[j] == inc.rounds {
				inc.psi[e] += inc.result[j]
				inc.distinct[e]++
			}
		}
	}
}

// Estimate ranks the entries by the current scores Ψ_i − Δ*_i·k/2 and
// returns the top-k signal — exactly what Reconstruct would return on the
// answered prefix.
func (inc *Incremental) Estimate(k int) *bitvec.Vector {
	n := inc.g.N()
	if k < 0 || k > n {
		panic(fmt.Sprintf("mn: weight k=%d out of [0,%d]", k, n))
	}
	scores := make([]float64, n)
	halfK := float64(k) / 2
	for i := 0; i < n; i++ {
		scores[i] = float64(inc.psi[i]) - float64(inc.distinct[i])*halfK
	}
	est := bitvec.New(n)
	for _, i := range parsort.TopK(scores, k) {
		est.Set(int(i))
	}
	return est
}

// ConsistentSoFar reports whether candidate est reproduces every answered
// query result exactly; y must be indexed by query id (only answered
// positions are consulted). This is the early-stopping predicate: once
// true (and k ≥ 1 queries are in), continuing the remaining rounds cannot
// change a correct decision.
func (inc *Incremental) ConsistentSoFar(est *bitvec.Vector, y []int64) bool {
	if len(y) != inc.g.M() {
		return false
	}
	pred := query.Counts(inc.g, est)
	for j, r := range inc.round {
		if r != 0 && pred[j] != y[j] {
			return false
		}
	}
	return true
}
