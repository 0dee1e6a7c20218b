// Package pooled reconstructs sparse binary signals from pooled additive
// measurements — a Go implementation of "On the Parallel Reconstruction
// from Pooled Data" (Gebhard, Hahn-Klimroth, Kaaser, Loick; IPDPS 2022).
//
// # The problem
//
// A hidden signal σ ∈ {0,1}^n with k = n^θ one-entries (infected probes,
// defective items, active features) is observed only through pooled
// queries: each query names a multiset of coordinates and returns the
// exact number of one-entries it contains, counted with multiplicity. All
// queries are chosen up front and executed in parallel — the regime of a
// liquid-handling robot or a GPU batch, where one round of measurements
// dominates the total running time.
//
// # Usage
//
// Build a Scheme for (n, m), obtain the pools, measure (for simulations,
// Measure does it in-process), and reconstruct:
//
//	scheme, err := pooled.New(10000, 600, pooled.Options{Seed: 1})
//	y := scheme.Measure(signal)              // or a real lab fills this in
//	support, err := scheme.Reconstruct(y, k) // MN-Algorithm
//
// RecommendedQueries returns the query budget Theorem 1 asks for, with
// the paper's finite-size correction applied.
package pooled

import (
	"fmt"
	"sync"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/mn"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/thresholds"
)

// DesignKind selects the pooling design of a Scheme.
type DesignKind int

const (
	// RandomRegular is the paper's design: every query draws Γ = n/2
	// coordinates uniformly with replacement.
	RandomRegular DesignKind = iota
	// Bernoulli connects every (coordinate, query) pair independently
	// with probability 1/2.
	Bernoulli
	// ConstantColumn gives every coordinate the same number of distinct
	// queries.
	ConstantColumn
)

// DecoderKind selects the reconstruction algorithm.
type DecoderKind int

const (
	// MN is the paper's Maximum Neighborhood algorithm (the default).
	MN DecoderKind = iota
	// MNRefined is MN followed by residual-decreasing swap refinement.
	MNRefined
	// BeliefPropagation is a Gaussian-approximation message-passing
	// decoder.
	BeliefPropagation
	// GreedyPeeling is an OMP-style residual peeling decoder.
	GreedyPeeling
	// ExhaustiveSearch enumerates all weight-k signals (tiny n only).
	ExhaustiveSearch
	// CompressedSensing is a box-constrained FISTA relaxation (the
	// ℓ1/basis-pursuit family).
	CompressedSensing
)

// Options configures a Scheme.
type Options struct {
	// Seed makes the design reproducible; two schemes with equal
	// (n, m, Seed, Design) pool identically.
	Seed uint64
	// Design selects the pooling design; default RandomRegular.
	Design DesignKind
	// Workers bounds goroutine pools; 0 means GOMAXPROCS.
	Workers int
}

// Scheme is a fixed non-adaptive pooling design over n coordinates with m
// queries, plus the decoders that invert it. Safe for concurrent use
// after construction.
type Scheme struct {
	n, m    int
	g       *graph.Bipartite
	seed    uint64
	workers int

	// es is the engine-side view of this scheme: set at construction for
	// schemes served from an Engine cache, wrapped lazily otherwise.
	esOnce sync.Once
	es     *engine.Scheme
}

// designFor maps a DesignKind to its pooling implementation.
func designFor(kind DesignKind) (pooling.Design, error) {
	switch kind {
	case RandomRegular:
		return pooling.RandomRegular{}, nil
	case Bernoulli:
		return pooling.Bernoulli{}, nil
	case ConstantColumn:
		return pooling.ConstantColumn{}, nil
	}
	return nil, fmt.Errorf("pooled: unknown design kind %d", kind)
}

// decoderFor maps a DecoderKind to its implementation.
func decoderFor(kind DecoderKind, workers int) (decoder.Decoder, error) {
	switch kind {
	case MN:
		return decoder.MN{Workers: workers}, nil
	case MNRefined:
		return decoder.Refined{}, nil
	case BeliefPropagation:
		return decoder.BP{}, nil
	case GreedyPeeling:
		return decoder.Greedy{}, nil
	case ExhaustiveSearch:
		return decoder.Exhaustive{}, nil
	case CompressedSensing:
		return decoder.LP{}, nil
	}
	return nil, fmt.Errorf("pooled: unknown decoder kind %d", kind)
}

// New builds a pooling scheme with n coordinates and m parallel queries.
func New(n, m int, opts Options) (*Scheme, error) {
	des, err := designFor(opts.Design)
	if err != nil {
		return nil, err
	}
	g, err := des.Build(n, m, pooling.BuildOptions{Seed: opts.Seed, Parallelism: opts.Workers})
	if err != nil {
		return nil, err
	}
	return &Scheme{n: n, m: m, g: g, seed: opts.Seed, workers: opts.Workers}, nil
}

// N returns the signal length.
func (s *Scheme) N() int { return s.n }

// M returns the number of queries.
func (s *Scheme) M() int { return s.m }

// Pools returns the queries as explicit multisets of coordinates — what a
// lab would hand to its pipetting robot. Pool j lists each coordinate as
// many times as the design drew it.
func (s *Scheme) Pools() [][]int {
	out := make([][]int, s.m)
	s.g.ForEachQuery(0, s.m, func(j int, ents, muls []int32) error {
		pool := make([]int, 0, s.g.QuerySize(j))
		for p, e := range ents {
			for c := int32(0); c < muls[p]; c++ {
				pool = append(pool, int(e))
			}
		}
		out[j] = pool
		return nil
	})
	return out
}

// Measure simulates the parallel measurement round: it returns the exact
// pooled counts for the given signal. len(signal) must be n.
func (s *Scheme) Measure(signal []bool) []int64 {
	if len(signal) != s.n {
		panic(fmt.Sprintf("pooled: signal length %d, want %d", len(signal), s.n))
	}
	sigma := bitvec.FromBools(signal)
	return query.Execute(s.g, sigma, query.Options{Workers: s.workers, Seed: s.seed}).Y
}

// MeasureBatch simulates the measurement round for many signals against
// this one design — how a screening lab or feature-selection pipeline
// actually runs (one design, many plates). Each signal costs one scatter
// over its support's edges, O(weight·Δ*), spread over the scheme's
// workers. Row b of the result equals Measure(signals[b]).
func (s *Scheme) MeasureBatch(signals [][]bool) [][]int64 {
	return query.ExecuteBatch(s.g, s.batchVectors(signals), s.workers)
}

// batchVectors validates and packs a batch of boolean signals.
func (s *Scheme) batchVectors(signals [][]bool) []*bitvec.Vector {
	sigmas := make([]*bitvec.Vector, len(signals))
	for b, sig := range signals {
		if len(sig) != s.n {
			panic(fmt.Sprintf("pooled: signal %d has length %d, want %d", b, len(sig), s.n))
		}
		sigmas[b] = bitvec.FromBools(sig)
	}
	return sigmas
}

// MeasureNoisy simulates measurements with additive rounded Gaussian
// noise of standard deviation sigma on every count.
func (s *Scheme) MeasureNoisy(signal []bool, sigma float64) []int64 {
	if len(signal) != s.n {
		panic(fmt.Sprintf("pooled: signal length %d, want %d", len(signal), s.n))
	}
	sv := bitvec.FromBools(signal)
	return query.Execute(s.g, sv, query.Options{
		Oracle: query.Noisy{Sigma: sigma}, Workers: s.workers, Seed: s.seed,
	}).Y
}

// NoiseModel declares how a set of counts was (or should be) measured.
// The zero value is the exact additive oracle. It is the public form of
// the service's noise-model spec: the same fields travel on pooledd's
// wire API as {"kind":"gaussian","sigma":0.5,"seed":7}.
type NoiseModel struct {
	// Kind is "exact" (or empty), "gaussian", or "threshold".
	Kind string
	// Sigma is the Gaussian standard deviation (gaussian models).
	Sigma float64
	// T is the threshold (threshold models); 0 means 1, negative values
	// fail validation.
	T int64
	// Seed roots the per-signal noise streams: equal (model, signals)
	// reproduce bit-identical noisy counts.
	Seed uint64
}

// internal converts the public model to the engine-side spec. The raw
// kind is preserved so validation can reject unknown kinds before
// canonicalization defaults them.
func (nm NoiseModel) internal() noise.Model {
	return noise.Model{Kind: noise.Kind(nm.Kind), Sigma: nm.Sigma, T: nm.T, Seed: nm.Seed}
}

// Validate reports whether the model is well-formed.
func (nm NoiseModel) Validate() error { return nm.internal().Validate() }

// MeasureBatchNoisy simulates the batched measurement round under a
// noise model: one scatter per signal computes its exact counts, then
// each signal's counts are perturbed with an
// independent per-signal stream rooted at the model's seed. Row b equals
// a single noisy measurement of signals[b] with seed nm.Seed⊕b-derived
// streams, and two calls with equal models perturb identically.
func (s *Scheme) MeasureBatchNoisy(signals [][]bool, nm NoiseModel) ([][]int64, error) {
	m := nm.internal()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sigmas := s.batchVectors(signals)
	if m.IsExact() {
		return query.ExecuteBatch(s.g, sigmas, s.workers), nil
	}
	return query.ExecuteBatchNoisy(s.g, sigmas, s.workers, m, m.SignalSeeds(len(sigmas))), nil
}

// Reconstruct runs the MN-Algorithm on measured counts y and returns the
// sorted support (indices of the estimated one-entries). k is the signal's
// Hamming weight; if unknown, measure one extra pool containing every
// coordinate once — its count is exactly k.
func (s *Scheme) Reconstruct(y []int64, k int) ([]int, error) {
	return s.ReconstructWith(y, k, MN)
}

// ReconstructWith is Reconstruct with an explicit decoder choice.
func (s *Scheme) ReconstructWith(y []int64, k int, kind DecoderKind) ([]int, error) {
	dec, err := decoderFor(kind, s.workers)
	if err != nil {
		return nil, err
	}
	est, err := dec.Decode(s.g, y, k)
	if err != nil {
		return nil, err
	}
	return est.Support(), nil
}

// ReconstructApprox classifies coordinates by the threshold rule of the
// paper's Corollary 6 instead of forcing exactly kHint ones: kHint is
// used only to centralize the scores, so a lower bound on the true
// weight suffices (the regime the paper highlights when k is not known
// exactly). The returned support may have any size.
func (s *Scheme) ReconstructApprox(y []int64, kHint int) ([]int, error) {
	if len(y) != s.m {
		return nil, fmt.Errorf("pooled: %d counts for %d queries", len(y), s.m)
	}
	if kHint < 0 || kHint > s.n {
		return nil, fmt.Errorf("pooled: weight hint %d out of [0,%d]", kHint, s.n)
	}
	res := mn.ReconstructThreshold(s.g, y, kHint, mn.Options{Workers: s.workers})
	return res.Estimate.Support(), nil
}

// Consistent reports whether a candidate support exactly reproduces the
// measured counts.
func (s *Scheme) Consistent(support []int, y []int64) bool {
	if len(y) != s.m {
		return false
	}
	return decoder.Consistent(s.g, bitvec.FromIndices(s.n, support), y)
}

// Plan describes the simulated execution of the measurement round on a
// limited number of parallel processing units (the partially-parallel
// regime discussed in the paper's conclusions).
type Plan struct {
	// Units is the number of processing units used (m when fully
	// parallel).
	Units int
	// Rounds is the maximum number of queries any unit executes.
	Rounds int
	// Makespan is the completion time of the measurement round.
	Makespan time.Duration
	// SequentialTime is the single-unit completion time, for comparison.
	SequentialTime time.Duration
}

// MeasurementPlan schedules the scheme's m queries onto L processing
// units (L <= 0 means fully parallel), each query taking perQuery time,
// and reports rounds and makespan. Reconstruction quality is unaffected
// by L — only wall-clock time changes — which is the point of the
// non-adaptive design.
func (s *Scheme) MeasurementPlan(units int, perQuery time.Duration) Plan {
	durations := make([]time.Duration, s.m)
	for j := range durations {
		durations[j] = perQuery
	}
	rounds, makespan, total := query.Schedule(durations, units)
	u := units
	if u <= 0 || u > s.m {
		u = s.m
	}
	return Plan{Units: u, Rounds: rounds, Makespan: makespan, SequentialTime: total}
}

// RecommendedQueries returns a practical query budget for exact
// reconstruction of a weight-k signal of length n with the MN-Algorithm:
// Theorem 1's m_MN(n,θ) with the finite-size correction of §V, rounded
// up.
func RecommendedQueries(n, k int) int {
	m := thresholds.MNFiniteSize(n, k)
	return int(m + 0.999999)
}

// InformationLimit returns the information-theoretic threshold
// m_para = 2k·ln(n/k)/ln k below which *no* decoder — efficient or not —
// can reconstruct from parallel queries w.h.p. (Theorem 2 and its
// converse).
func InformationLimit(n, k int) float64 {
	return thresholds.BPDPara(n, k)
}

// Theta returns the sparsity exponent θ = ln k/ln n of an instance.
func Theta(n, k int) float64 { return thresholds.Theta(n, k) }
