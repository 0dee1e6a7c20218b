package engine

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pooleddata/metrics/trace"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = fmt.Errorf("engine: closed")

// ErrSaturated is returned by TrySubmit when the decode queue is full —
// the admission-control signal a front-end turns into 429 + Retry-After.
var ErrSaturated = fmt.Errorf("engine: decode queue saturated")

// Queue is a shard's bounded job queue: admission (validation, the
// shard's own admit check, the three submit modes and their rejection
// accounting), the goroutines that drain it, and a Close that stops
// admission and waits for them. Every shard runs on one: an Engine
// drains it by decoding in process, a remote shard client by sending
// frames to its worker. Safe for concurrent use.
type Queue struct {
	rec    *Recorder
	admit  func(Job) error
	traces *trace.Store

	tasks chan *Task
	wg    sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight Submit sends
	closed bool
}

// NewQueue returns an empty queue holding up to depth tasks, recording
// its jobs in rec. admit, if set, may refuse a job after validation and
// before it queues; its error is returned as is and counts nowhere.
// traces, if set, makes the queue the trace owner for jobs that arrive
// without a builder, as Config.Traces does for an Engine.
func NewQueue(depth int, rec *Recorder, admit func(Job) error, traces *trace.Store) *Queue {
	return &Queue{rec: rec, admit: admit, traces: traces, tasks: make(chan *Task, depth)}
}

// Task is a queued job plus its bookkeeping: the submit context and the
// time it entered the queue. Whoever drains it calls Settle once.
type Task struct {
	Job      Job
	Ctx      context.Context
	Enqueued time.Time

	fut *Future
	rec *Recorder
	// traces is set when the queue opened the job's builder itself
	// (bare job, traces set): Settle then finishes and offers it.
	traces *trace.Store
}

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
func (q *Queue) Submit(ctx context.Context, job Job) (*Future, error) {
	return q.submit(ctx, job, submitBlock)
}

// TrySubmit is Submit without the enqueue wait: a full queue returns
// ErrSaturated immediately and counts toward Stats.JobsRejected.
func (q *Queue) TrySubmit(ctx context.Context, job Job) (*Future, error) {
	return q.submit(ctx, job, submitTry)
}

// Offer is TrySubmit for cooperative schedulers (the campaign
// dispatcher): a full queue returns ErrSaturated immediately but does
// not count toward Stats.JobsRejected — the job was already admitted
// and the caller keeps it queued on its side to retry, so counting it
// as a rejection would double-book every backpressure stall.
func (q *Queue) Offer(ctx context.Context, job Job) (*Future, error) {
	return q.submit(ctx, job, submitOffer)
}

func (q *Queue) submit(ctx context.Context, job Job, mode submitMode) (*Future, error) {
	if err := validateJob(job); err != nil {
		return nil, err
	}
	if q.admit != nil {
		if err := q.admit(job); err != nil {
			return nil, err
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	fut := &Future{done: make(chan struct{})}
	t := &Task{Job: job, Ctx: ctx, Enqueued: time.Now(), fut: fut, rec: q.rec}
	if q.traces != nil && t.Job.Trace == nil {
		if t.Job.TraceID == "" {
			t.Job.TraceID = trace.NewID()
		}
		t.Job.Trace = trace.NewBuilder(t.Job.TraceID, "decode_job", trace.TierFrontend)
		t.traces = q.traces
	}

	// The read lock is held across the (possibly blocking) send so Close
	// can never close the channel under a sender; drain goroutines take
	// tasks without touching the lock, so blocked senders always make
	// progress.
	q.mu.RLock()
	defer q.mu.RUnlock()
	if q.closed {
		return nil, ErrClosed
	}
	if mode != submitBlock {
		select {
		case q.tasks <- t:
			q.rec.Submitted()
			return fut, nil
		default:
			if mode == submitTry {
				q.rec.Rejected(1)
			}
			return nil, ErrSaturated
		}
	}
	select {
	case q.tasks <- t:
		q.rec.Submitted()
		return fut, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Start runs n goroutines, each passing the tasks it receives to drain
// until Close.
func (q *Queue) Start(n int, drain func(*Task)) {
	for i := 0; i < n; i++ {
		q.wg.Add(1)
		go func() {
			defer q.wg.Done()
			for t := range q.tasks {
				drain(t)
			}
		}()
	}
}

// Tasks is the queue's receive side, for a drain function that takes
// the tasks already queued behind the one it was given.
func (q *Queue) Tasks() <-chan *Task { return q.tasks }

// Close stops admission and waits for the drain goroutines to empty the
// queue and exit; queued jobs still settle. It reports whether this call
// closed the queue.
func (q *Queue) Close() bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.closed = true
	close(q.tasks)
	q.mu.Unlock()
	q.wg.Wait()
	return true
}

// QueueDepth reports the number of jobs waiting to be drained.
func (q *Queue) QueueDepth() int { return len(q.tasks) }

// QueueCapacity reports the queue bound.
func (q *Queue) QueueCapacity() int { return cap(q.tasks) }

// Saturated reports whether the queue is full right now — the
// admission-control signal for batch submissions (single jobs use
// TrySubmit, which checks and enqueues atomically).
func (q *Queue) Saturated() bool { return len(q.tasks) == cap(q.tasks) }

// NoteRejected records n admission-control rejections that happened
// outside TrySubmit (a batch or campaign turned away up front).
func (q *Queue) NoteRejected(n int) { q.rec.Rejected(n) }

// Settle records the job from its result, completes the future and then
// fires OnDone, timing those two as the job's settle stage (the stage
// where campaign accounting and fan-out bookkeeping run). The job's tag
// and trace ID are stamped on every path so OnDone handlers can route
// the settlement without per-job closures and logs can correlate it with
// its ingress request. A builder the queue opened is finished last.
func (t *Task) Settle(res Result, err error) {
	res.Tag = t.Job.Tag
	res.TraceID = t.Job.TraceID
	t.rec.record(t.Job, res, err)
	start := time.Now()
	t.fut.complete(res, err)
	if t.Job.OnDone != nil {
		t.Job.OnDone(res, err)
	}
	t.rec.settled(res, time.Since(start))
	t.traces.Finish(t.Job.Trace, err)
}
