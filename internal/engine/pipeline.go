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

// NewFuture returns an unresolved Future for job plus the single-use
// settle function that completes it — the adapter remote shard clients
// use to fan RPC completions back into the local Future/OnDone surface.
// settle stamps the job's Tag on the result, completes the future, and
// then fires the job's OnDone callback, in the same order as the worker
// pipeline's settle path, so fan-out callers cannot tell a remote
// settlement from a local one.
func NewFuture(job Job) (fut *Future, settle func(Result, error)) {
	t := &task{job: job, fut: &Future{done: make(chan struct{})}}
	return t.fut, t.settle
}

// task is a queued job plus its bookkeeping.
type task struct {
	job      Job
	ctx      context.Context
	fut      *Future
	enqueued time.Time
	// ownTrace marks a builder the engine created itself (bare job,
	// Config.Traces set) — the engine must finish and offer it.
	ownTrace bool
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// ErrSaturated is returned by TrySubmit when the decode queue is full —
// the admission-control signal a front-end turns into 429 + Retry-After.
var ErrSaturated = fmt.Errorf("engine: decode queue saturated")

// submitMode selects how submit treats a full queue.
type submitMode int

const (
	// submitBlock waits for queue space (backpressure).
	submitBlock submitMode = iota
	// submitTry returns ErrSaturated and counts the rejection — the
	// admission-control path.
	submitTry
	// submitOffer returns ErrSaturated without counting it: the caller is
	// a cooperative scheduler that was already admitted and will retry.
	submitOffer
)

// Submit validates and enqueues a decode job, returning a Future. It
// blocks while the queue is full; ctx cancels both the enqueue wait and —
// if still queued when it fires — the job itself.
func (e *Engine) Submit(ctx context.Context, job Job) (*Future, error) {
	return e.submit(ctx, job, submitBlock)
}

// TrySubmit is Submit without the enqueue wait: a full queue returns
// ErrSaturated immediately and counts toward Stats.JobsRejected.
func (e *Engine) TrySubmit(ctx context.Context, job Job) (*Future, error) {
	return e.submit(ctx, job, submitTry)
}

// Offer is TrySubmit for cooperative schedulers (the campaign
// dispatcher): a full queue returns ErrSaturated immediately but does
// not count toward Stats.JobsRejected — the job was already admitted
// and the caller keeps it queued on its side to retry, so counting it
// as a rejection would double-book every backpressure stall.
func (e *Engine) Offer(ctx context.Context, job Job) (*Future, error) {
	return e.submit(ctx, job, submitOffer)
}

func (e *Engine) submit(ctx context.Context, job Job, mode submitMode) (*Future, error) {
	if err := validateJob(job); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fut := &Future{done: make(chan struct{})}
	t := &task{job: job, ctx: ctx, fut: fut, enqueued: time.Now()}
	if e.traces() != nil && t.job.Trace == nil {
		if t.job.TraceID == "" {
			t.job.TraceID = trace.NewID()
		}
		t.job.Trace = trace.NewBuilder(t.job.TraceID, "decode_job", trace.TierFrontend)
		t.ownTrace = true
	}

	// The read lock is held across the (possibly blocking) send so Close
	// can never close the channel under a sender; workers drain the queue
	// without touching the lock, so blocked senders always make progress.
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	if mode != submitBlock {
		select {
		case e.jobs <- t:
			e.stats.jobsSubmitted.Add(1)
			return fut, nil
		default:
			if mode == submitTry {
				e.stats.jobsRejected.Add(1)
			}
			return nil, ErrSaturated
		}
	}
	select {
	case e.jobs <- t:
		e.stats.jobsSubmitted.Add(1)
		return fut, nil
	case <-ctx.Done():
		return nil, ctx.Err()
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

// worker drains the job queue until Close.
func (e *Engine) worker() {
	defer e.wg.Done()
	for t := range e.jobs {
		e.run(t)
	}
}

// run executes one task, completes its future, and fires the job's
// completion callback (in that order, so a callback that unblocks a
// waiter never races the future's result).
func (e *Engine) run(t *task) {
	wait := time.Since(t.enqueued)
	tb := t.job.Trace
	tb.SetScheme(t.job.Scheme.RouteKey())
	if err := t.ctx.Err(); err != nil {
		e.stats.jobsCanceled.Add(1)
		tb.Span("shard_queue", trace.TierFrontend, 0, t.enqueued, wait)
		t.settle(Result{Stats: JobStats{QueueWait: wait}}, err)
		e.finishOwnedTrace(t, err)
		return
	}
	dec := t.job.dec()
	nm := t.job.Noise.Canon()
	e.queueHist.get(dec.Name()).observe(wait)
	e.noiseQueueHist.get(nm.Key()).observe(wait)
	tb.Span("shard_queue", trace.TierFrontend, 0, t.enqueued, wait)
	start := time.Now()
	est, err := dec.Decode(t.job.Scheme.G, t.job.Y, t.job.K)
	elapsed := time.Since(start)
	e.hist.get(dec.Name()).observe(elapsed)
	e.noiseHist.get(nm.Key()).observe(elapsed)
	e.load.record(t.job.Scheme.RouteKey(), elapsed.Nanoseconds(), time.Now())
	tb.Span("decode", trace.TierFrontend, 0, start, elapsed)
	if err != nil {
		e.stats.jobsFailed.Add(1)
		settleStart := time.Now()
		t.settle(Result{Decoder: dec.Name(), Stats: JobStats{QueueWait: wait, DecodeTime: elapsed}}, err)
		e.settleHist.get(dec.Name()).observe(time.Since(settleStart))
		e.finishOwnedTrace(t, err)
		return
	}
	res := Result{
		Support:  est.Support(),
		Estimate: est,
		Decoder:  dec.Name(),
		Stats:    JobStats{QueueWait: wait, DecodeTime: elapsed},
	}
	res.Stats.Residual = e.residual(t.job.Scheme, est, t.job.Y, nm)
	res.Stats.Consistent = res.Stats.Residual <= nm.ResidualSlack(len(t.job.Y))

	e.stats.jobsCompleted.Add(1)
	if res.Stats.Consistent {
		e.stats.consistent.Add(1)
	}
	e.stats.queueWaitNS.Add(int64(wait))
	e.stats.decodeNS.Add(int64(elapsed))
	settleStart := time.Now()
	t.settle(res, nil)
	// The settle timer covers future completion plus the OnDone callback —
	// the stage where campaign accounting and fan-out bookkeeping run.
	e.settleHist.get(dec.Name()).observe(time.Since(settleStart))
	e.finishOwnedTrace(t, nil)
}

// finishOwnedTrace seals and tail-samples a builder the engine itself
// opened in submit; builders created by a caller are the caller's to
// finish.
func (e *Engine) finishOwnedTrace(t *task, err error) {
	if !t.ownTrace {
		return
	}
	if err != nil {
		t.job.Trace.SetError(err.Error())
	}
	e.traces().Offer(t.job.Trace.Finish())
}

// traces returns the engine's trace store (nil when tracing is off).
func (e *Engine) traces() *trace.Store { return e.cfg.Traces }

// settle completes the task's future and then fires OnDone. The job's
// tag and trace ID are stamped on every path so OnDone handlers can
// route the settlement without per-job closures and logs can correlate
// it with its ingress request.
func (t *task) settle(res Result, err error) {
	res.Tag = t.job.Tag
	res.TraceID = t.job.TraceID
	t.fut.complete(res, err)
	if t.job.OnDone != nil {
		t.job.OnDone(res, err)
	}
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
