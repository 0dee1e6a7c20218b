package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/query"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

// ErrWorkerUnavailable marks jobs that failed because their worker was
// unreachable (or kept failing past the retry budget). It wraps
// engine.ErrShardUnavailable, so the campaign dispatcher can recognize
// the orphaned job and re-dispatch it to a surviving shard without
// importing this package; callers matching ErrWorkerUnavailable itself
// keep working unchanged.
var ErrWorkerUnavailable = fmt.Errorf("remote: worker unavailable: %w", engine.ErrShardUnavailable)

// Options configures a remote shard client.
type Options struct {
	// Addr is the worker's host:port (or full http:// base URL).
	Addr string
	// QueueDepth bounds jobs buffered client-side awaiting a sender; a
	// full queue returns ErrSaturated (the dispatcher's backpressure
	// signal). 0 means 32.
	QueueDepth int
	// Senders is the number of concurrent request goroutines (sharing
	// one connection-reusing http.Client), so at most this many frames
	// are in flight. 0 means 4.
	Senders int
	// RequestTimeout is the per-request deadline of decode and install
	// calls. 0 means 60s.
	RequestTimeout time.Duration
	// ProbeInterval is the health-probe period. 0 means 2s.
	ProbeInterval time.Duration
	// Retries is how many times a failed request is retried before the
	// job settles with an error. 0 means 2; negative means none.
	Retries int
	// MaxBatch bounds the jobs a sender ships in one frame: the job it
	// picked up plus those already queued behind it. 0 means 64; the
	// frame format itself caps frames at 1024 jobs.
	MaxBatch int
	// RetryBackoff is the base delay between retries (grows linearly
	// with the attempt). 0 means 50ms.
	RetryBackoff time.Duration
	// Metrics, when set, receives the client's transport metrics:
	// per-stage request timers (serialize/network/worker-queue/
	// worker-decode), jobs per frame, retries, and probe-state
	// transitions, all labeled by worker addr. Nil records nothing.
	Metrics *metrics.Registry
	// Logger receives structured transport logs (health transitions,
	// exhausted retry budgets). Nil means slog.Default().
	Logger *slog.Logger
}

func (o Options) queueDepth() int {
	if o.QueueDepth <= 0 {
		return 32
	}
	return o.QueueDepth
}

func (o Options) senders() int {
	if o.Senders <= 0 {
		return 4
	}
	return o.Senders
}

func (o Options) requestTimeout() time.Duration {
	if o.RequestTimeout <= 0 {
		return 60 * time.Second
	}
	return o.RequestTimeout
}

func (o Options) probeInterval() time.Duration {
	if o.ProbeInterval <= 0 {
		return 2 * time.Second
	}
	return o.ProbeInterval
}

func (o Options) retries() int {
	if o.Retries == 0 {
		return 2
	}
	if o.Retries < 0 {
		return 0
	}
	return o.Retries
}

func (o Options) maxBatch() int {
	if o.MaxBatch <= 0 {
		return 64
	}
	if o.MaxBatch > maxBatchJobs {
		return maxBatchJobs
	}
	return o.MaxBatch
}

func (o Options) retryBackoff() time.Duration {
	if o.RetryBackoff <= 0 {
		return 50 * time.Millisecond
	}
	return o.RetryBackoff
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// maxSchemes bounds the designs a client keeps built and the install
// ids it remembers; beyond it the oldest go first.
const maxSchemes = 128

// errNoKey refuses a job whose scheme has no key: without one the
// worker cannot be told which design to decode on.
var errNoKey = errors.New("remote: scheme has no key (neither a spec key nor a content hash) to install its design under")

// schemeState names a job's design to the worker: the install id the
// worker keys its table by (the scheme's key: its spec key, or an
// upload's GraphKey) and the scheme whose graph installs under it.
type schemeState struct {
	id     string
	scheme *engine.Scheme
}

// install is the client's record of one install id: whether the worker
// holds the design. Its mutex serializes the id's installs, so jobs
// racing on one design ship it once.
type install struct {
	sync.Mutex
	held bool
}

// clear forgets the install after the worker answered 404 for it.
func (in *install) clear() {
	in.Lock()
	in.held = false
	in.Unlock()
}

// Shard is the client side of the shard protocol: an engine.Shard whose
// decode pipeline lives in a `pooledd -worker` process. Its job queue is
// a local shard's engine.Queue, drained by sender goroutines instead of
// decoders, so admission control, backpressure and Close are the local
// shard's own. Safe for concurrent use.
type Shard struct {
	// Cache builds and keeps the designs this client's schemes wrap: the
	// frontend is their source of truth (it serves design CSVs and
	// validates jobs against the graph), and the worker receives each
	// one before its first decode there.
	*engine.Cache
	// Queue holds jobs awaiting a sender. Its admit check refuses a
	// keyless scheme and any job while the worker is unhealthy.
	*engine.Queue

	opts Options
	base string
	hc   *http.Client

	healthy atomic.Bool
	gauges  atomic.Pointer[healthResponse]

	// rec records every job this client settles, from the result its
	// worker reported (or the error that stood in for one).
	rec *engine.Recorder

	// installs records the install ids the worker holds, at most
	// maxSchemes of them; order is their arrival order, oldest first.
	imu      sync.Mutex
	installs map[string]*install
	order    []string

	stop      chan struct{}
	probeDone chan struct{}

	// bufPool recycles request-frame buffers, so steady-state decodes
	// stop allocating per frame.
	bufPool sync.Pool

	// Transport observability: per-stage request timers and transport
	// counters, no-ops when Options.Metrics is nil.
	log          *slog.Logger
	mStage       *metrics.HistogramVec
	mRetries     *metrics.Counter
	mTransitions *metrics.CounterVec
	mBatchJobs   *metrics.Histogram
}

var _ engine.Shard = (*Shard)(nil)
var _ engine.HomeSetter = (*Shard)(nil)

// New starts a shard client against a worker address. The client
// assumes the worker is reachable until the first probe says otherwise;
// release its senders and probe with Close.
func New(opts Options) *Shard {
	base := opts.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	s := &Shard{
		Cache: engine.NewCache(maxSchemes),
		rec:   engine.NewRecorder(),
		opts:  opts,
		base:  strings.TrimRight(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: opts.senders() + 2,
			IdleConnTimeout:     90 * time.Second,
		}},
		bufPool:   sync.Pool{New: func() any { return new(bytes.Buffer) }},
		installs:  make(map[string]*install),
		stop:      make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	s.log = opts.logger().With("worker", opts.Addr)
	reg := opts.Metrics
	s.mStage = reg.Histogram("pooled_remote_request_seconds",
		"Remote decode time by stage: serialize, network, worker_queue, worker_decode, total.",
		nil, "addr", "stage")
	s.mRetries = reg.Counter("pooled_remote_retries_total",
		"Decode attempts retried after a transport or worker failure.", "addr").With(opts.Addr)
	s.mTransitions = reg.Counter("pooled_remote_worker_health_transitions_total",
		"Probe-state flips, labeled by the state transitioned to.", "addr", "to")
	s.mBatchJobs = reg.Histogram("pooled_remote_batch_jobs",
		"Jobs carried by each binary decode frame.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, "addr").With(opts.Addr)
	s.healthy.Store(true)
	s.Queue = engine.NewQueue(opts.queueDepth(), s.rec, s.admit, nil)
	s.Start(opts.senders(), func(t *engine.Task) { s.process(s.gather(t)) })
	go s.probeLoop()
	return s
}

// Addr reports the worker address this shard fronts.
func (s *Shard) Addr() string { return s.opts.Addr }

// Healthy reports the probe state: false after a dead-worker failure or
// failed probe, true again once a probe succeeds.
func (s *Shard) Healthy() bool { return s.healthy.Load() }

// setHealthy records a probe-state observation; an actual flip emits a
// structured log and a worker_health_transitions_total increment with
// the worker addr, so a dead (or recovered) worker is visible in logs
// and dashboards, not just in job errors. cause names what flipped it.
func (s *Shard) setHealthy(h bool, cause string) {
	if !s.healthy.CompareAndSwap(!h, h) {
		return // no transition
	}
	to := "healthy"
	if !h {
		to = "unhealthy"
	}
	s.mTransitions.With(s.opts.Addr, to).Inc()
	s.log.Info("worker health transition", "to", to, "cause", cause)
}

// Close stops accepting jobs, lets the senders drain the queue (jobs
// still settle — against the worker if it is up, with errors if not),
// and then stops the health probe.
func (s *Shard) Close() {
	if !s.Queue.Close() {
		return
	}
	close(s.stop)
	<-s.probeDone
	s.hc.CloseIdleConnections()
}

// record returns the record of install id, making one on first use and
// dropping the oldest beyond maxSchemes.
func (s *Shard) record(id string) *install {
	s.imu.Lock()
	defer s.imu.Unlock()
	in, ok := s.installs[id]
	if !ok {
		in = new(install)
		s.installs[id] = in
		s.order = append(s.order, id)
		if len(s.order) > maxSchemes {
			delete(s.installs, s.order[0])
			s.order = s.order[1:]
		}
	}
	return in
}

// MeasureBatch runs on the frontend — measurement is simulation-side
// work against the locally-held graph, not something to ship counts
// back and forth for.
func (s *Shard) MeasureBatch(sc *engine.Scheme, signals []*bitvec.Vector, nm noise.Model) [][]int64 {
	nm = nm.Canon()
	var ys [][]int64
	if nm.IsExact() {
		ys = query.ExecuteBatch(sc.G, signals, runtime.GOMAXPROCS(0))
	} else {
		ys = query.ExecuteBatchNoisy(sc.G, signals, runtime.GOMAXPROCS(0), nm, nm.SignalSeeds(len(signals)))
	}
	s.rec.Measured(len(signals))
	return ys
}

// admit refuses, before it queues, a job the worker could not be asked
// to decode: one whose scheme has no key, and any job while the worker
// is unhealthy — a dead worker fails jobs promptly instead of queueing
// them toward a timeout, so the dispatcher settles them and campaigns
// terminate.
func (s *Shard) admit(job engine.Job) error {
	if job.Scheme.RouteKey() == "" {
		return errNoKey
	}
	if !s.healthy.Load() {
		return s.unavailableErr(nil)
	}
	return nil
}

// Saturated reports client-queue fullness or an unhealthy worker — the
// batch admission signal the frontend turns into 429 + Retry-After.
func (s *Shard) Saturated() bool { return s.Queue.Saturated() || !s.healthy.Load() }

// QueueDepth combines jobs waiting client-side with the worker's last
// reported queue depth.
func (s *Shard) QueueDepth() int { return s.Queue.QueueDepth() + s.lastGauges().QueueDepth }

// QueueCapacity combines the client queue bound with the worker's.
func (s *Shard) QueueCapacity() int { return s.Queue.QueueCapacity() + s.lastGauges().QueueCapacity }

// Workers reports the worker's decode pool size (0 before the first
// probe).
func (s *Shard) Workers() int { return s.lastGauges().Workers }

// CachedSchemes reports the worker's resident scheme count: the designs
// installed on it, as of the last probe.
func (s *Shard) CachedSchemes() int { return s.lastGauges().CachedSchemes }

func (s *Shard) lastGauges() healthResponse {
	if h := s.gauges.Load(); h != nil {
		return *h
	}
	return healthResponse{}
}

// Stats is the client's recorder snapshot plus its scheme cache's
// counters: every job this client settled, recorded from its result the
// moment it settled, and the designs the client built. Jobs another
// frontend sent to the same worker are not among them.
func (s *Shard) Stats() engine.Stats {
	st := s.rec.Snapshot()
	s.Cache.AddCounters(&st)
	return st
}

func (s *Shard) unavailableErr(cause error) error {
	if cause != nil {
		return fmt.Errorf("%w: %s: %v", ErrWorkerUnavailable, s.opts.Addr, cause)
	}
	return fmt.Errorf("%w: %s", ErrWorkerUnavailable, s.opts.Addr)
}

// gather takes the jobs already queued behind first, up to MaxBatch, so
// a sender ships its pickup and them as one frame. It never waits for
// more: a lone job ships at once, and jobs that queue while the senders'
// frames are in flight ride the next frames together.
func (s *Shard) gather(first *engine.Task) []*engine.Task {
	batch := []*engine.Task{first}
	for len(batch) < s.opts.maxBatch() {
		select {
		case t, ok := <-s.Tasks():
			if !ok {
				return batch
			}
			batch = append(batch, t)
		default:
			return batch
		}
	}
	return batch
}

// getBuf leases a request-frame buffer from the pool.
func (s *Shard) getBuf() *bytes.Buffer {
	b := s.bufPool.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func (s *Shard) putBuf(b *bytes.Buffer) { s.bufPool.Put(b) }

// process ships a batch to the worker, one frame per attempt, with
// bounded retry-then-fail semantics: OK and terminal results settle at
// once, and transient ones ride the next attempt's frame together after
// a backoff. A job whose context ends settles as canceled without
// failing its frame-mates. Jobs still pending when the retry budget runs
// out settle with ErrWorkerUnavailable, and the worker is marked
// unhealthy only if the last attempt got no answer.
func (s *Shard) process(batch []*engine.Task) {
	attempts := s.opts.retries() + 1
	pending := batch
	var lastErr error
	answered := false
	for attempt := 0; attempt < attempts; attempt++ {
		if pending = s.settleCanceled(pending); len(pending) == 0 {
			return
		}
		ctx, release := frameContext(pending)
		if attempt > 0 {
			s.mRetries.Add(float64(len(pending)))
			if !sleepCtx(ctx, s.opts.retryBackoff()*time.Duration(attempt)) {
				release() // every job is canceled; the next pass settles them
				continue
			}
		}
		pending, lastErr, answered = s.send(ctx, pending)
		release()
	}
	if pending = s.settleCanceled(pending); len(pending) == 0 {
		return
	}
	if !answered {
		s.setHealthy(false, "retry budget exhausted: "+errString(lastErr))
		s.log.Warn("decode retry budget exhausted", "jobs", len(pending), "attempts", attempts, "err", lastErr)
	}
	s.fail(pending, s.unavailableErr(lastErr))
}

// settleCanceled settles the tasks whose context has ended and returns
// the rest.
func (s *Shard) settleCanceled(tasks []*engine.Task) []*engine.Task {
	live := tasks[:0]
	for _, t := range tasks {
		if err := t.Ctx.Err(); err != nil {
			t.Settle(engine.Result{Stats: engine.JobStats{QueueWait: time.Since(t.Enqueued)}}, err)
			continue
		}
		live = append(live, t)
	}
	return live
}

// fail settles tasks with an error.
func (s *Shard) fail(tasks []*engine.Task, err error) {
	for _, t := range tasks {
		t.Settle(engine.Result{Stats: engine.JobStats{QueueWait: time.Since(t.Enqueued)}}, err)
	}
}

// frameContext returns a context that ends once every task's context has
// ended, so a frame is abandoned only when no job in it still wants the
// answer. release frees the context.
func frameContext(tasks []*engine.Task) (ctx context.Context, release func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var live atomic.Int64
	live.Store(int64(len(tasks)))
	stops := make([]func() bool, len(tasks))
	for i, t := range tasks {
		stops[i] = context.AfterFunc(t.Ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, stop := range stops {
			stop()
		}
		cancel()
	}
}

// send ships one frame of tasks and settles every OK and terminal
// result. It returns the tasks to retry, the error that holds them back,
// and whether the worker answered.
func (s *Shard) send(ctx context.Context, tasks []*engine.Task) (retry []*engine.Task, lastErr error, answered bool) {
	// Install every distinct design once, by its key. A job whose design
	// does not install waits for the next attempt; its frame-mates ship.
	ready := make([]*engine.Task, 0, len(tasks))
	ids := make([]string, 0, len(tasks))
	installs := make(map[string]error, 1)
	for _, t := range tasks {
		st := schemeState{id: t.Job.Scheme.RouteKey(), scheme: t.Job.Scheme}
		err, done := installs[st.id]
		if !done {
			err = s.ensure(ctx, &st)
			installs[st.id] = err
		}
		if err != nil {
			retry, lastErr = append(retry, t), err
			continue
		}
		ready = append(ready, t)
		ids = append(ids, st.id)
	}
	if len(ready) == 0 {
		return retry, lastErr, false
	}

	buf := s.getBuf()
	defer s.putBuf(buf)
	serializeStart := time.Now()
	jobs := make([]batchJob, len(ready))
	for i, t := range ready {
		jobs[i] = batchJob{
			Scheme: ids[i],
			Noise:  t.Job.Noise.Canon().String(),
			Trace:  t.Job.TraceID,
			K:      t.Job.K,
			Y:      t.Job.Y,
		}
		if t.Job.Dec != nil {
			jobs[i].Decoder = t.Job.Dec.Name()
		}
	}
	buf.Write(appendBatchRequest(buf.AvailableBuffer(), jobs))
	// The marshal cost is shared evenly by the frame's jobs.
	serialize := time.Since(serializeStart) / time.Duration(len(ready))
	s.mBatchJobs.Observe(float64(len(ready)))

	reqStart := time.Now()
	rep, err := s.postBatch(ctx, buf.Bytes(), len(ready))
	if err != nil {
		return append(retry, ready...), err, false
	}
	s.setHealthy(true, "decode request answered")
	if rep.results == nil {
		err := fmt.Errorf("remote: worker %s: status %d: %s", s.opts.Addr, rep.status, rep.reason)
		if rep.status >= 400 && rep.status < 500 && rep.status != http.StatusTooManyRequests {
			// A refused frame (a worker without the route, or a version
			// skew answering 400 or 415) fails loudly: no retry can change
			// the answer.
			s.fail(ready, err)
			return retry, lastErr, true
		}
		return append(retry, ready...), err, true
	}
	for i := range rep.results {
		r, t := &rep.results[i], ready[i]
		switch r.Status {
		case batchOK:
			s.settleOK(t, r, serializeStart, serialize, reqStart, rep.roundTrip)
		case batchDecodeErr, batchBadRequest:
			// A decode or validation failure is deterministic: terminal.
			s.fail([]*engine.Task{t}, fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err))
		case batchNotFound:
			// The worker restarted or evicted the scheme: re-install and
			// retry.
			s.record(ids[i]).clear()
			fallthrough
		default: // unavailable, or saturated from an older worker
			retry, lastErr = append(retry, t), fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err)
		}
	}
	return retry, lastErr, true
}

// settleOK settles one job's OK result and records its wire stages,
// once per job however jobs were packed into frames. Each stage is built
// once, as a name, tier, start and duration, and feeds both its
// pooled_remote_request_seconds series and the trace span of the same
// name: serialize is the job's share of the frame's marshal, network the
// round trip minus the job's own worker queue and decode time (no clock
// sync needed), and the worker's two stages are laid at the tail of the
// request window. The "wire" span covers marshal plus round trip; the
// histogram's "total" stage is its duration.
func (s *Shard) settleOK(t *engine.Task, r *batchResult, serializeStart time.Time, serialize time.Duration, reqStart time.Time, roundTrip time.Duration) {
	clientWait := serializeStart.Sub(t.Enqueued)
	queue, decode := time.Duration(r.QueueNS), time.Duration(r.DecodeNS)
	workerStart := reqStart.Add(max(roundTrip-queue-decode, 0))
	wire := reqStart.Add(roundTrip).Sub(serializeStart)
	stages := [...]struct {
		name, tier string
		start      time.Time
		dur        time.Duration
	}{
		{"serialize", trace.TierFrontend, serializeStart, serialize},
		{"network", trace.TierFrontend, reqStart, workerStart.Sub(reqStart)},
		{"worker_queue", trace.TierWorker, workerStart, queue},
		{"worker_decode", trace.TierWorker, workerStart.Add(queue), decode},
	}
	tb := t.Job.Trace
	tb.Span("shard_queue", trace.TierFrontend, 0, t.Enqueued, clientWait)
	parent := tb.Span("wire", trace.TierFrontend, 0, serializeStart, wire)
	s.mStage.With(s.opts.Addr, "total").ObserveDuration(wire)
	for _, st := range stages {
		s.mStage.With(s.opts.Addr, st.name).ObserveDuration(st.dur)
		tb.Span(st.name, st.tier, parent, st.start, st.dur)
	}
	support := r.Support
	if support == nil {
		// A frame carries an empty support as none at all; results keep
		// the engine's empty, non-nil slice.
		support = []int{}
	}
	t.Settle(engine.Result{
		Support: support,
		Decoder: r.Decoder,
		Stats: engine.JobStats{
			QueueWait:  clientWait + queue,
			DecodeTime: decode,
			Residual:   r.Residual,
			Consistent: r.Consistent,
		},
	}, nil)
}

// batchReply is one frame's round trip: the HTTP status, the parsed
// results (a 200 carrying a response frame with one result per job) or
// the reason there are none, and the round trip the stage split divides.
type batchReply struct {
	status    int
	results   []batchResult
	reason    string
	roundTrip time.Duration
}

// postBatch runs one decode-batch request for a frame of jobs. err is
// transport-level only; an answer that is not a usable response frame
// comes back with results nil and its reason.
func (s *Shard) postBatch(ctx context.Context, payload []byte, jobs int) (batchReply, error) {
	rctx, cancel := context.WithTimeout(ctx, s.opts.requestTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, s.base+decodeBatchPath, bytes.NewReader(payload))
	if err != nil {
		return batchReply{}, err
	}
	req.Header.Set("Content-Type", batchMediaType)
	req.Header.Set("Accept", batchMediaType)
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return batchReply{}, err
	}
	defer drainClose(resp.Body)
	rep := batchReply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&eb); derr != nil || eb.Error == "" {
			eb.Error = http.StatusText(resp.StatusCode)
		}
		rep.reason = eb.Error
		return rep, nil
	}
	if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt != batchMediaType {
		rep.reason = fmt.Sprintf("reply of type %q is not a response frame", mt)
		return rep, nil
	}
	body, err := io.ReadAll(resp.Body)
	// The body read is part of the round trip the stage split divides.
	rep.roundTrip = time.Since(start)
	if err != nil {
		return batchReply{}, err
	}
	results, err := parseBatchResponse(body)
	switch {
	case err != nil:
		rep.reason = err.Error()
	case len(results) != jobs:
		rep.reason = fmt.Sprintf("response frame has %d results for %d jobs", len(results), jobs)
	default:
		rep.results = results
	}
	return rep, nil
}

func errString(err error) string {
	if err == nil {
		return "unknown"
	}
	return err.Error()
}

// sleepCtx waits d, or less if ctx ends first; it reports whether the
// full wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// ensure ships the scheme's design, in its binary form, to the worker
// under st.id unless the client's record says the worker holds it (a 404
// clears the record). Serialized per install id; idempotent on the
// worker. A worker that cannot parse the body (a version skew answers
// 415 or 400) fails the install with its reason.
func (s *Shard) ensure(ctx context.Context, st *schemeState) error {
	in := s.record(st.id)
	in.Lock()
	defer in.Unlock()
	if in.held {
		return nil
	}
	rctx, cancel := context.WithTimeout(ctx, s.opts.requestTimeout())
	defer cancel()
	body := bytes.NewReader(st.scheme.G.AppendBinary(nil))
	req, err := http.NewRequestWithContext(rctx, http.MethodPut, s.base+schemePathPrefix+url.PathEscape(st.id), body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", designMediaType)
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		// A body that is not the JSON error envelope leaves the reason
		// empty; the status still names the failure.
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return fmt.Errorf("remote: install scheme on %s: status %d: %s", s.opts.Addr, resp.StatusCode, eb.Error)
	}
	in.held = true
	return nil
}

func (s *Shard) probeLoop() {
	defer close(s.probeDone)
	tick := time.NewTicker(s.opts.probeInterval())
	defer tick.Stop()
	for {
		s.probe()
		select {
		case <-tick.C:
		case <-s.stop:
			return
		}
	}
}

// probe asks the worker's health endpoint and records the answer: the
// gauges and a healthy state on success, an unhealthy one otherwise.
func (s *Shard) probe() {
	// A fixed timeout rather than the (possibly very short) probe
	// interval: probes run sequentially in the loop, so a slow one just
	// delays the next tick instead of overlapping it — and a tight
	// interval must not misread a slow-but-alive worker as dead.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+healthPath, nil)
	if err != nil {
		s.setHealthy(false, "probe request: "+err.Error())
		return
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.setHealthy(false, "probe: "+err.Error())
		return
	}
	defer drainClose(resp.Body)
	var h healthResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || !h.OK {
		s.setHealthy(false, fmt.Sprintf("probe status %d", resp.StatusCode))
		return
	}
	s.gauges.Store(&h)
	s.setHealthy(true, "probe ok")
}

// drainClose discards the rest of a response body and closes it, so the
// underlying connection is reusable.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 64<<10))
	rc.Close()
}
