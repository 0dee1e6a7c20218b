// Package query simulates the measurement side of the pooled data problem:
// the lab robot (or GPU, or PCR machine) that evaluates all pooled queries
// in parallel.
//
// The paper's premise is that performing a query is expensive — a
// biological process, a neural network evaluation — while the
// reconstruction is cheap, which is why the design is non-adaptive and all
// m queries run simultaneously. This package provides:
//
//   - Oracles: the additive oracle of the paper (exact count of one-entries,
//     multi-edges counted with multiplicity), plus noisy and threshold
//     variants used by the extension experiments. Each maps a query's
//     exact count to its response.
//   - An executor with one kernel: a signal's exact counts come from
//     scattering the edges of its support entries into the m results
//     (O(weight·Δ*) over the graph's entry side), then each query's
//     oracle answer and simulated latency draw from a stream private to
//     the query. Batches scatter one signal per worker at a time.
//   - A virtual-time scheduler for the partially-parallel regime of §VI:
//     only L processing units exist, so the m queries are list-scheduled
//     onto the units and the simulated makespan is reported.
package query

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/rng"
)

// Oracle answers one pooled query from the exact number v of one-entries
// in its pool, counted with multiplicity (an entry drawn twice counts
// twice) — the only thing the paper's oracle and its noisy and threshold
// variants depend on. r is a stream private to the query for randomized
// (noisy) oracles; deterministic oracles ignore it.
type Oracle interface {
	// Answer returns the oracle's response to a pool holding v
	// one-entries.
	Answer(v int64, r *rng.Rand) int64
	// Name identifies the oracle in experiment output.
	Name() string
}

// Additive is the paper's query model: the exact number of one-entries in
// the pool, counted with multiplicity (an entry drawn twice contributes
// twice).
type Additive struct{}

// Name implements Oracle.
func (Additive) Name() string { return "additive" }

// Answer implements Oracle.
func (Additive) Answer(v int64, _ *rng.Rand) int64 { return v }

// Noisy wraps the additive count with additive rounded Gaussian noise of
// standard deviation Sigma — the standard robustness model for pooled
// measurements. Responses are clamped at zero.
type Noisy struct {
	Sigma float64
}

// Name implements Oracle.
func (o Noisy) Name() string { return fmt.Sprintf("noisy(σ=%g)", o.Sigma) }

// Answer implements Oracle.
func (o Noisy) Answer(v int64, r *rng.Rand) int64 {
	if o.Sigma > 0 && r != nil {
		v += int64(o.Sigma*r.NormFloat64() + 0.5)
	}
	if v < 0 {
		v = 0
	}
	return v
}

// Threshold is the threshold group testing oracle of §VI: it returns 1 iff
// the number of one-entries in the pool (with multiplicity) is at least T.
// T = 1 recovers classical binary group testing.
type Threshold struct {
	T int64
}

// Name implements Oracle.
func (o Threshold) Name() string { return fmt.Sprintf("threshold(T=%d)", o.T) }

// Answer implements Oracle.
func (o Threshold) Answer(v int64, _ *rng.Rand) int64 {
	if v >= max(o.T, 1) {
		return 1
	}
	return 0
}

// LatencyModel assigns a simulated duration to each query. Models must be
// deterministic functions of (query index, stream).
type LatencyModel interface {
	// Duration returns the simulated execution time of query j.
	Duration(j int, r *rng.Rand) time.Duration
}

// ConstantLatency gives every query the same duration.
type ConstantLatency struct {
	D time.Duration
}

// Duration implements LatencyModel.
func (c ConstantLatency) Duration(int, *rng.Rand) time.Duration { return c.D }

// UniformLatency draws each query's duration uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Duration implements LatencyModel.
func (u UniformLatency) Duration(_ int, r *rng.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	span := uint64(u.Max - u.Min + 1)
	return u.Min + time.Duration(r.Uint64n(span))
}

// Options configures an execution.
type Options struct {
	// Oracle answering the queries; nil means Additive{}.
	Oracle Oracle
	// Units is the number L of parallel processing units for the
	// simulated schedule. 0 means fully parallel (one round: L = m).
	Units int
	// Latency is the per-query simulated duration model; nil means one
	// unit of time per query.
	Latency LatencyModel
	// Workers bounds the real goroutine pool; 0 means GOMAXPROCS.
	Workers int
	// Seed feeds per-query rng streams (noise, random latencies).
	Seed uint64
}

func (o Options) oracle() Oracle {
	if o.Oracle == nil {
		return Additive{}
	}
	return o.Oracle
}

func (o Options) latency() LatencyModel {
	if o.Latency == nil {
		// One virtual time unit (nanosecond) per query; only ratios matter.
		return ConstantLatency{D: 1}
	}
	return o.Latency
}

// Result is the outcome of executing all queries of a design.
type Result struct {
	// Y is the response vector, Y[j] = oracle answer of query j.
	Y []int64
	// Rounds is the number of scheduling rounds: with L units and m
	// queries of equal latency this is ⌈m/L⌉; 1 when fully parallel.
	Rounds int
	// Makespan is the simulated completion time of the last query under
	// list scheduling onto the L units.
	Makespan time.Duration
	// TotalWork is the sum of all simulated query durations (the
	// sequential-execution time).
	TotalWork time.Duration
}

// Counts returns the exact additive count of every query for sigma, by
// scattering the edges of its support entries into the m results:
// O(weight·Δ*) work over the entry side, not a pass over every incidence
// of the design.
func Counts(g *graph.Bipartite, sigma *bitvec.Vector) []int64 {
	y := make([]int64, g.M())
	sigma.ForEachSet(func(i int) {
		qs, mu := g.EntryQueries(i)
		for p, j := range qs {
			y[j] += int64(mu[p])
		}
	})
	return y
}

// forRanges splits [0, items) into at most workers contiguous ranges (0
// means GOMAXPROCS) and runs body on each, inline when one suffices.
func forRanges(items, workers int, body func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, items)
	if workers <= 1 {
		body(0, items)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(w*items/workers, (w+1)*items/workers)
	}
	wg.Wait()
}

// Execute evaluates every query of g against sigma: the exact counts come
// from one scatter over sigma's support (Counts), then query j's oracle
// answer and simulated duration draw, in that order, from a stream
// seeded by (Options.Seed, j). The response vector is deterministic given
// (g, sigma, Options.Seed) regardless of worker count; the simulated
// schedule is computed with virtual time, not wall time.
func Execute(g *graph.Bipartite, sigma *bitvec.Vector, opts Options) Result {
	if g.N() != sigma.Len() {
		panic(fmt.Sprintf("query: design over %d entries, signal has %d", g.N(), sigma.Len()))
	}
	m := g.M()
	res := Result{Y: Counts(g, sigma)}
	oracle := opts.oracle()
	durations := make([]time.Duration, m)
	lat := opts.latency()
	forRanges(m, opts.Workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			r := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(opts.Seed, uint64(j))))
			res.Y[j] = oracle.Answer(res.Y[j], r)
			durations[j] = lat.Duration(j, r)
		}
	})
	res.Rounds, res.Makespan, res.TotalWork = Schedule(durations, opts.Units)
	return res
}

// ExecuteBatch evaluates every query of g against B signals: row b is
// Counts(g, sigmas[b]), one O(weight·Δ*) scatter per signal, with the
// signals split among workers (0 means GOMAXPROCS). Only the exact
// additive oracle is supported here — imperfect oracles go through
// ExecuteBatchNoisy. Row b of the result is bit-identical to
// Execute(g, sigmas[b], ...).Y.
func ExecuteBatch(g *graph.Bipartite, sigmas []*bitvec.Vector, workers int) [][]int64 {
	return ExecuteBatchNoisy(g, sigmas, workers, nil, nil)
}

// Perturber maps the exact additive count of one (signal, query) cell to
// the response an imperfect oracle would return. r is the cell's private
// noise stream (nil when Deterministic reports true). noise.Model is the
// canonical implementation; the interface lives here so the executor does
// not depend on the noise subsystem.
type Perturber interface {
	// Perturb returns the oracle response for an exact count v.
	Perturb(v int64, r *rng.Rand) int64
	// Deterministic reports whether Perturb ignores its stream.
	Deterministic() bool
}

// ExecuteBatchNoisy is ExecuteBatch for imperfect oracles: each signal's
// exact counts come from one scatter over its support, then each
// (signal b, query j) cell is perturbed with a stream derived from
// (seeds[b], j) — the same derivation Execute uses from
// (Options.Seed, j). Row b is therefore bit-identical to
// Execute(g, sigmas[b], Options{Oracle: ..., Seed: seeds[b]}) for
// count-only oracles, independent of batch composition and worker count,
// and two batches with equal seeds perturb identically. len(seeds) must
// equal len(sigmas); a nil or deterministic perturber may pass nil seeds.
func ExecuteBatchNoisy(g *graph.Bipartite, sigmas []*bitvec.Vector, workers int, p Perturber, seeds []uint64) [][]int64 {
	nb := len(sigmas)
	for b, s := range sigmas {
		if g.N() != s.Len() {
			panic(fmt.Sprintf("query: design over %d entries, signal %d has %d", g.N(), b, s.Len()))
		}
	}
	needStreams := p != nil && !p.Deterministic()
	if needStreams && len(seeds) != nb {
		panic(fmt.Sprintf("query: %d noise seeds for %d signals", len(seeds), nb))
	}
	out := make([][]int64, nb)
	forRanges(nb, workers, func(lo, hi int) {
		var r *rng.Rand
		if needStreams {
			r = rng.NewRand(rng.NewXoshiro(0))
		}
		for b := lo; b < hi; b++ {
			y := Counts(g, sigmas[b])
			if p != nil {
				for j, v := range y {
					if needStreams {
						// Reset the worker's stream to the cell's seed:
						// identical to a freshly constructed generator.
						r.Seed(rng.DeriveSeed(seeds[b], uint64(j)))
					}
					y[j] = p.Perturb(v, r)
				}
			}
			out[b] = y
		}
	})
	return out
}

// Schedule list-schedules the given query durations onto L units
// (0 or >= len(durations) means fully parallel) and returns the number of
// rounds, the makespan, and the total work. Queries are assigned in index
// order to the unit that becomes free earliest, which models a lab feeding
// its L machines from a fixed queue.
func Schedule(durations []time.Duration, units int) (rounds int, makespan, total time.Duration) {
	m := len(durations)
	if m == 0 {
		return 0, 0, 0
	}
	if units <= 0 || units >= m {
		for _, d := range durations {
			total += d
			if d > makespan {
				makespan = d
			}
		}
		return 1, makespan, total
	}
	free := make([]time.Duration, units)
	counts := make([]int, units)
	for _, d := range durations {
		// Pick the earliest-free unit.
		best := 0
		for u := 1; u < units; u++ {
			if free[u] < free[best] {
				best = u
			}
		}
		free[best] += d
		counts[best]++
		total += d
	}
	for u := 0; u < units; u++ {
		if free[u] > makespan {
			makespan = free[u]
		}
		if counts[u] > rounds {
			rounds = counts[u]
		}
	}
	return rounds, makespan, total
}
