package engine

import (
	"context"
	"fmt"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/noise"
	"pooleddata/metrics/trace"
)

// Job is one decode request: invert the scheme's design on the measured
// counts Y, looking for a weight-K signal.
type Job struct {
	// Scheme is the design to invert (from Engine.Scheme or
	// SchemeFromGraph).
	Scheme *Scheme
	// Y are the measured counts, one per query.
	Y []int64
	// K is the signal's Hamming weight.
	K int
	// Noise declares how Y was measured; the zero value means exact
	// additive counts. A non-exact model drives server-side decoder
	// selection (when Dec is nil), widens the consistency check by the
	// model's residual slack, and breaks the job out in the per-model
	// engine counters.
	Noise noise.Model
	// Dec selects the reconstruction algorithm explicitly, overriding the
	// noise policy; nil means noise.SelectDecoder for noisy jobs and the
	// paper's MN-Algorithm for exact ones.
	Dec decoder.Decoder
	// Tag is an opaque caller token echoed back in Result.Tag on every
	// settle path (completed, failed, canceled). It lets a fan-out caller
	// share one OnDone callback across a batch and route each settlement
	// by tag instead of allocating a closure per job — the campaign
	// subsystem stamps the job's batch index here and builds its event
	// log straight from the callback payload, no extra lookup or lock.
	Tag int
	// OnDone, if set, is invoked exactly once when the job settles —
	// completed, failed, or canceled — after its Future completes. It runs
	// on the worker goroutine, so it must be cheap and must not block; the
	// campaign subsystem uses it for progress accounting.
	OnDone func(Result, error)
	// TraceID is the request-scoped trace identifier, echoed back in
	// Result.TraceID on every settle path. The pipeline treats it as
	// opaque; pooledd stamps the ingress Trace-ID here and the remote
	// shard client carries it over the wire, so one job's timeline is
	// reconstructable across frontend and worker logs.
	TraceID string
	// Trace is the job's span builder. The pipeline appends its
	// shard-queue and decode spans to it; the remote shard client
	// appends the wire-stage spans. Whoever created the builder (the
	// pooledd ingress handler, the campaign store, or — when
	// Config.Traces is set and the job arrives bare — the engine
	// itself) finishes it and offers it for tail sampling. Nil is fine:
	// every span call on a nil builder is a no-op.
	Trace *trace.Builder
}

func (j Job) dec() decoder.Decoder {
	if j.Dec != nil {
		return j.Dec
	}
	if nm := j.Noise.Canon(); nm.Kind != noise.Exact && j.Scheme != nil && j.Scheme.G != nil {
		return noise.SelectDecoder(nm, noise.SchemeParams{N: j.Scheme.G.N(), M: j.Scheme.G.M(), K: j.K})
	}
	return decoder.MN{}
}

// JobStats are the per-job measurements the pipeline records.
type JobStats struct {
	// QueueWait is the time between Submit and a worker picking the job
	// up.
	QueueWait time.Duration
	// DecodeTime is the time spent inside the decoder.
	DecodeTime time.Duration
	// Residual is the L1 misfit Σ_j |y_j − ŷ_j| of the estimate, with
	// predictions mapped through the job's noise model (thresholded for
	// threshold jobs) before comparison.
	Residual int64
	// Consistent reports whether the estimate reproduces Y within the
	// noise model's residual slack (exactly, for exact jobs).
	Consistent bool
}

// Result is the outcome of a completed job.
type Result struct {
	// Tag echoes Job.Tag — present on every settle path, including
	// cancellations and failures.
	Tag int
	// TraceID echoes Job.TraceID — present on every settle path.
	TraceID string
	// Support is the recovered one-entry index set, ascending.
	Support []int
	// Estimate is the recovered signal as a bit vector.
	Estimate *bitvec.Vector
	// Decoder is the name of the decoder that ran the job — for jobs
	// without an explicit decoder, the one the noise policy selected.
	Decoder string
	// Stats are the per-job pipeline measurements.
	Stats JobStats
}

// Future is the handle returned by Submit. Wait blocks until the job
// completes or the passed context is done.
type Future struct {
	done chan struct{}
	res  Result
	err  error
}

func (f *Future) complete(res Result, err error) {
	f.res, f.err = res, err
	close(f.done)
}

// Done returns a channel closed when the job has completed.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait returns the job's result, blocking until it completes or ctx is
// done. A context error abandons the wait, not the job: the worker still
// finishes it and the engine counters still see it.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Decode is Submit followed by Wait: it runs one job through the pipeline
// and returns its result.
func (e *Engine) Decode(ctx context.Context, job Job) (Result, error) {
	fut, err := e.Submit(ctx, job)
	if err != nil {
		return Result{}, err
	}
	return fut.Wait(ctx)
}

// run executes one task and settles it with its result; the queue wait
// and decode time in the result are the ones its spans record.
func (e *Engine) run(t *Task) {
	wait := time.Since(t.Enqueued)
	tb := t.Job.Trace
	tb.SetScheme(t.Job.Scheme.RouteKey())
	tb.Span("shard_queue", trace.TierFrontend, 0, t.Enqueued, wait)
	if err := t.Ctx.Err(); err != nil {
		t.Settle(Result{Stats: JobStats{QueueWait: wait}}, err)
		return
	}
	dec := t.Job.dec()
	start := time.Now()
	est, err := dec.Decode(t.Job.Scheme.G, t.Job.Y, t.Job.K)
	res := Result{Decoder: dec.Name(), Stats: JobStats{QueueWait: wait, DecodeTime: time.Since(start)}}
	tb.Span("decode", trace.TierFrontend, 0, start, res.Stats.DecodeTime)
	if err == nil {
		nm := t.Job.Noise.Canon()
		res.Support, res.Estimate = est.Support(), est
		res.Stats.Residual = e.residual(t.Job.Scheme, est, t.Job.Y, nm)
		res.Stats.Consistent = res.Stats.Residual <= nm.ResidualSlack(len(t.Job.Y))
	}
	t.Settle(res, err)
}

// residual computes the L1 misfit of est against y from
// decoder.Predict's O(k·Δ*) scatter. Predicted counts pass through the
// noise model first, so threshold jobs compare binarized responses
// rather than raw counts.
func (e *Engine) residual(s *Scheme, est *bitvec.Vector, y []int64, nm noise.Model) int64 {
	pred := decoder.Predict(s.G, est)
	var r int64
	for j := range y {
		d := y[j] - nm.TransformExpected(pred[j])
		if d < 0 {
			d = -d
		}
		r += d
	}
	return r
}

// DecoderByName maps a wire-format decoder name to its implementation.
// Accepted names are the decoder Name() strings plus common aliases.
func DecoderByName(name string) (decoder.Decoder, error) {
	switch name {
	case "", "mn":
		return decoder.MN{}, nil
	case "mn-refined", "refined":
		return decoder.Refined{}, nil
	case "bp":
		return decoder.BP{}, nil
	case "greedy-omp", "greedy":
		return decoder.Greedy{}, nil
	case "lp-relaxation", "lp", "cs":
		return decoder.LP{}, nil
	case "exhaustive":
		return decoder.Exhaustive{}, nil
	}
	return nil, fmt.Errorf("engine: unknown decoder %q", name)
}
