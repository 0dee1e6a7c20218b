package engine

import (
	"context"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/noise"
	"pooleddata/internal/query"
)

// MeasureBatch evaluates every signal against the scheme's design, one
// O(weight·Δ*) scatter over each signal's support (the
// one-design/many-signals regime of a screening campaign). nm declares
// the measurement oracle: the zero model returns
// exact counts; a Gaussian or threshold model perturbs each signal's
// counts with an independent, reproducible per-signal stream rooted at
// the model's seed, so row b equals Execute(g, sigma_b, Options{Oracle:
// nm.Oracle(), Seed: nm.SignalSeed(b)}).Y.
func (e *Engine) MeasureBatch(s *Scheme, signals []*bitvec.Vector, nm noise.Model) [][]int64 {
	nm = nm.Canon()
	var ys [][]int64
	if nm.IsExact() {
		ys = query.ExecuteBatch(s.G, signals, e.Workers())
	} else {
		ys = query.ExecuteBatchNoisy(s.G, signals, e.Workers(), nm, nm.SignalSeeds(len(signals)))
	}
	e.stats.signalsMeasured.Add(uint64(len(signals)))
	return ys
}

// DecodeBatch pipelines one decode job per count vector through the
// worker pool and waits for all of them. The job template's Noise and
// Dec fields apply to every job, so a noisy batch selects its robust
// decoder once per vector server-side. Results are in input order; the
// first decode error (or ctx error) is returned after every submitted
// job has settled, alongside the partial results (failed slots are
// zero).
func (e *Engine) DecodeBatch(ctx context.Context, s *Scheme, ys [][]int64, k int, job Job) ([]Result, error) {
	return decodeBatchOn(e, ctx, s, ys, k, job)
}
