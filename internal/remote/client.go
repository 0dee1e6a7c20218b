package remote

import (
	"bytes"
	"context"
	"encoding/json"
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
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
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

// statsTTL bounds how often Stats() refetches from the worker.
const statsTTL = 500 * time.Millisecond

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
	// MaxSchemes bounds the client-side scheme cache; evicted schemes
	// are re-ensured on demand. 0 means 128.
	MaxSchemes int
	// BuildParallelism bounds goroutines per local design build.
	BuildParallelism int
	// EvictAfter is how many consecutive probe failures fire OnEvict.
	// 0 means 3; negative disables eviction (probes still flip Healthy).
	EvictAfter int
	// OnEvict fires (from the probe goroutine) when EvictAfter
	// consecutive probes have failed — the frontend's hook to pull this
	// worker out of the ring. The client keeps probing afterwards.
	OnEvict func()
	// OnRejoin fires (from the probe goroutine) when a probe succeeds
	// after an eviction — the hook to re-admit the worker to the ring.
	OnRejoin func()
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

func (o Options) evictAfter() int {
	if o.EvictAfter == 0 {
		return 3
	}
	if o.EvictAfter < 0 {
		return 0
	}
	return o.EvictAfter
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

func (o Options) maxSchemes() int {
	if o.MaxSchemes <= 0 {
		return 128
	}
	return o.MaxSchemes
}

func (o Options) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// schemeState is the client-side record of one scheme: the local graph
// (the frontend is the source of truth) plus whether the worker
// currently has it installed.
type schemeState struct {
	spec   engine.Spec
	id     string
	ready  chan struct{} // build finished (spec schemes built via Scheme)
	scheme *engine.Scheme
	err    error

	mu      sync.Mutex // serializes installs per scheme
	ensured bool
}

func (st *schemeState) unensure() {
	st.mu.Lock()
	st.ensured = false
	st.mu.Unlock()
}

// task is one queued decode awaiting a sender.
type task struct {
	job      engine.Job
	ctx      context.Context
	fut      *engine.Future
	settle   func(engine.Result, error)
	enqueued time.Time
}

// Shard is the client side of the shard protocol: an engine.Shard whose
// decode pipeline lives in a `pooledd -worker` process. It is shaped
// like a miniature engine — a bounded job queue drained by sender
// goroutines — so admission control, backpressure, and Close semantics
// match the local shard it stands in for. Safe for concurrent use.
type Shard struct {
	opts Options
	base string
	hc   *http.Client
	// home is the cluster index stamped on this client's schemes.
	// Atomic: membership changes re-stamp it while scheme builds read
	// it concurrently.
	home atomic.Int64

	jobs chan *task
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight submit sends
	closed bool

	healthy atomic.Bool
	gauges  atomic.Pointer[healthResponse]

	statsMu   sync.Mutex
	statsAt   time.Time
	statsLast engine.Stats

	// Client-side counters merged into Stats(): outcomes the worker
	// never saw (local rejections, transport failures, cancellations).
	jobsRejected    atomic.Uint64
	jobsFailed      atomic.Uint64
	jobsCanceled    atomic.Uint64
	signalsMeasured atomic.Uint64

	smu      sync.Mutex
	bySpec   map[engine.Spec]*schemeState
	byScheme map[*engine.Scheme]*schemeState
	order    []*schemeState
	instance int64
	adhocSeq atomic.Uint64

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
	mHealthy     *metrics.Gauge
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
		opts: opts,
		base: strings.TrimRight(base, "/"),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: opts.senders() + 2,
			IdleConnTimeout:     90 * time.Second,
		}},
		jobs:      make(chan *task, opts.queueDepth()),
		bufPool:   sync.Pool{New: func() any { return new(bytes.Buffer) }},
		bySpec:    make(map[engine.Spec]*schemeState),
		byScheme:  make(map[*engine.Scheme]*schemeState),
		instance:  time.Now().UnixNano(),
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
	s.mHealthy = reg.Gauge("pooled_remote_worker_healthy",
		"1 while the worker's probe state is healthy.", "addr").With(opts.Addr)
	s.mBatchJobs = reg.Histogram("pooled_remote_batch_jobs",
		"Jobs carried by each binary decode frame.",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, "addr").With(opts.Addr)
	s.healthy.Store(true)
	s.mHealthy.Set(1)
	for i := 0; i < opts.senders(); i++ {
		s.wg.Add(1)
		go s.sender()
	}
	go s.probeLoop()
	return s
}

// SetHome assigns the cluster index stamped on this client's schemes
// (cluster assembly and every membership change re-stamp it).
func (s *Shard) SetHome(i int) { s.home.Store(int64(i)) }

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
	to, v := "healthy", 1.0
	if !h {
		to, v = "unhealthy", 0.0
	}
	s.mTransitions.With(s.opts.Addr, to).Inc()
	s.mHealthy.Set(v)
	s.log.Info("worker health transition", "to", to, "cause", cause)
}

// Close stops accepting jobs, lets the senders drain the queue (jobs
// still settle — against the worker if it is up, with errors if not),
// and stops the health probe.
func (s *Shard) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
	<-s.probeDone
	// Nothing probes this worker anymore, so its healthy gauge would
	// otherwise export the last observed value forever — misleading for a
	// drained worker. Zero it after the probe and senders have made their
	// final writes.
	s.mHealthy.Set(0)
	s.hc.CloseIdleConnections()
}

func (s *Shard) adhocID() string {
	return fmt.Sprintf("adhoc-%d-%d", s.instance, s.adhocSeq.Add(1))
}

// Scheme builds the design locally (the frontend serves design CSVs and
// validates jobs against the graph) and lazily ships it to the worker
// before the first decode. Builds dedupe per spec like the engine
// cache; repeat calls return the identical pointer.
func (s *Shard) Scheme(des pooling.Design, n, m int, seed uint64) (*engine.Scheme, error) {
	if des == nil {
		des = pooling.RandomRegular{}
	}
	spec := engine.SpecFor(des, n, m, seed)
	s.smu.Lock()
	if st, ok := s.bySpec[spec]; ok {
		s.smu.Unlock()
		<-st.ready
		return st.scheme, st.err
	}
	st := &schemeState{spec: spec, id: spec.Key(), ready: make(chan struct{})}
	s.bySpec[spec] = st
	s.smu.Unlock()

	g, err := des.Build(n, m, pooling.BuildOptions{Seed: seed, Parallelism: s.opts.BuildParallelism})
	s.smu.Lock()
	if err != nil {
		st.err = err
		if cur, ok := s.bySpec[spec]; ok && cur == st {
			delete(s.bySpec, spec)
		}
	} else {
		st.scheme = engine.NewSchemeAt(spec, st.id, g, int(s.home.Load()))
		s.byScheme[st.scheme] = st
		s.order = append(s.order, st)
		s.evictLocked()
	}
	s.smu.Unlock()
	close(st.ready)
	return st.scheme, st.err
}

// SchemeFromGraph wraps an ad-hoc design; the graph ships to the worker
// before its first decode under key (the scheme's ring routing key, the
// content hash the cluster placed it by), so re-uploads and re-ensures
// after failover are idempotent on the worker's registry.
func (s *Shard) SchemeFromGraph(g *graph.Bipartite, key string) *engine.Scheme {
	id := key
	if id == "" {
		id = s.adhocID()
	}
	sc := engine.NewSchemeAt(engine.Spec{}, key, g, int(s.home.Load()))
	st := &schemeState{id: id, ready: closedChan(), scheme: sc}
	s.smu.Lock()
	s.byScheme[sc] = st
	s.order = append(s.order, st)
	s.evictLocked()
	s.smu.Unlock()
	return sc
}

// InstallScheme registers a prebuilt design under spec (warm start);
// the worker receives it lazily before the first decode.
func (s *Shard) InstallScheme(spec engine.Spec, g *graph.Bipartite) *engine.Scheme {
	id := spec.Key()
	sc := engine.NewSchemeAt(spec, id, g, int(s.home.Load()))
	st := &schemeState{spec: spec, id: id, ready: closedChan(), scheme: sc}
	s.smu.Lock()
	s.bySpec[spec] = st
	s.byScheme[sc] = st
	s.order = append(s.order, st)
	s.evictLocked()
	s.smu.Unlock()
	return sc
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// evictLocked trims the client scheme cache; evicted schemes still work
// if a caller kept one (stateFor rebuilds their record on demand, and
// the worker is re-ensured idempotently).
func (s *Shard) evictLocked() {
	for len(s.order) > s.opts.maxSchemes() {
		victim := s.order[0]
		s.order = s.order[1:]
		if cur, ok := s.bySpec[victim.spec]; ok && cur == victim {
			delete(s.bySpec, victim.spec)
		}
		if victim.scheme != nil {
			delete(s.byScheme, victim.scheme)
		}
	}
}

// stateFor returns (rebuilding if evicted) the record of a scheme a job
// carries. Schemes created by other shards or standalone engines get a
// fresh record keyed by their spec (or a new ad-hoc id), so any scheme
// with a graph can decode remotely.
func (s *Shard) stateFor(sc *engine.Scheme) *schemeState {
	s.smu.Lock()
	defer s.smu.Unlock()
	if st, ok := s.byScheme[sc]; ok {
		return st
	}
	id := sc.RouteKey() // spec key or ad-hoc content hash
	if sc.Spec != (engine.Spec{}) {
		id = sc.Spec.Key()
	} else if id == "" {
		id = s.adhocID()
	}
	st := &schemeState{spec: sc.Spec, id: id, ready: closedChan(), scheme: sc}
	s.byScheme[sc] = st
	if sc.Spec != (engine.Spec{}) {
		s.bySpec[sc.Spec] = st
	}
	s.order = append(s.order, st)
	s.evictLocked()
	return st
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
	s.signalsMeasured.Add(uint64(len(signals)))
	return ys
}

type submitMode int

const (
	modeBlock submitMode = iota
	modeTry
	modeOffer
)

// Submit enqueues the job client-side, blocking while the queue is
// full; a sender ships it to the worker and settles the Future.
func (s *Shard) Submit(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, modeBlock)
}

// TrySubmit is Submit with admission control: a full client queue
// returns ErrSaturated and counts the rejection.
func (s *Shard) TrySubmit(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, modeTry)
}

// Offer is TrySubmit without the rejection accounting — the campaign
// dispatcher's cooperative-backpressure path.
func (s *Shard) Offer(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, modeOffer)
}

func (s *Shard) submit(ctx context.Context, job engine.Job, mode submitMode) (*engine.Future, error) {
	if err := engine.ValidateJob(job); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A dead worker fails jobs promptly instead of queueing toward a
	// timeout: the dispatcher settles them and campaigns terminate.
	if !s.healthy.Load() {
		return nil, s.unavailableErr(nil)
	}
	fut, settle := engine.NewFuture(job)
	t := &task{job: job, ctx: ctx, fut: fut, settle: settle, enqueued: time.Now()}

	// Same locking discipline as engine.submit: the read lock spans the
	// send so Close never closes the channel under a sender.
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, engine.ErrClosed
	}
	if mode != modeBlock {
		select {
		case s.jobs <- t:
			return fut, nil
		default:
			if mode == modeTry {
				s.jobsRejected.Add(1)
			}
			return nil, engine.ErrSaturated
		}
	}
	select {
	case s.jobs <- t:
		return fut, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Saturated reports client-queue fullness or an unhealthy worker — the
// batch admission signal the frontend turns into 429 + Retry-After.
func (s *Shard) Saturated() bool {
	return len(s.jobs) == cap(s.jobs) || !s.healthy.Load()
}

// NoteRejected records admission rejections decided by a caller.
func (s *Shard) NoteRejected(n int) { s.jobsRejected.Add(uint64(n)) }

// QueueDepth combines jobs waiting client-side with the worker's last
// reported queue depth.
func (s *Shard) QueueDepth() int { return len(s.jobs) + s.lastGauges().QueueDepth }

// QueueCapacity combines the client queue bound with the worker's.
func (s *Shard) QueueCapacity() int { return cap(s.jobs) + s.lastGauges().QueueCapacity }

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

// Stats fetches the worker's counters (cached briefly) and folds in the
// client-side outcomes the worker never saw: local admission
// rejections, transport-failed jobs, cancellations, and locally
// measured signals.
func (s *Shard) Stats() engine.Stats {
	s.statsMu.Lock()
	if time.Since(s.statsAt) > statsTTL && s.healthy.Load() {
		if st, err := s.fetchStats(); err == nil {
			s.statsLast = st
			s.statsAt = time.Now()
		}
	}
	st := s.statsLast
	s.statsMu.Unlock()
	st.JobsRejected += s.jobsRejected.Load()
	st.JobsFailed += s.jobsFailed.Load()
	st.JobsCanceled += s.jobsCanceled.Load()
	st.SignalsMeasured += s.signalsMeasured.Load()
	return st
}

func (s *Shard) fetchStats() (engine.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+statsPath, nil)
	if err != nil {
		return engine.Stats{}, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return engine.Stats{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return engine.Stats{}, fmt.Errorf("remote: stats status %d", resp.StatusCode)
	}
	var st engine.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return engine.Stats{}, err
	}
	return st, nil
}

func (s *Shard) unavailableErr(cause error) error {
	if cause != nil {
		return fmt.Errorf("%w: %s: %v", ErrWorkerUnavailable, s.opts.Addr, cause)
	}
	return fmt.Errorf("%w: %s", ErrWorkerUnavailable, s.opts.Addr)
}

// sender drains the client queue until Close, shipping each pickup and
// the jobs already queued behind it as one frame.
func (s *Shard) sender() {
	defer s.wg.Done()
	for t := range s.jobs {
		s.process(s.gather(t))
	}
}

// gather takes the jobs already queued behind first, up to MaxBatch. It
// never waits for more: a lone job ships at once, and jobs that queue
// while the senders' frames are in flight ride the next frames together.
func (s *Shard) gather(first *task) []*task {
	batch := []*task{first}
	for len(batch) < s.opts.maxBatch() {
		select {
		case t, ok := <-s.jobs:
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
func (s *Shard) process(batch []*task) {
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
func (s *Shard) settleCanceled(tasks []*task) []*task {
	live := tasks[:0]
	for _, t := range tasks {
		if err := t.ctx.Err(); err != nil {
			s.jobsCanceled.Add(1)
			t.settle(engine.Result{Stats: engine.JobStats{QueueWait: time.Since(t.enqueued)}}, err)
			continue
		}
		live = append(live, t)
	}
	return live
}

// fail settles tasks with an error.
func (s *Shard) fail(tasks []*task, err error) {
	for _, t := range tasks {
		s.jobsFailed.Add(1)
		t.settle(engine.Result{Stats: engine.JobStats{QueueWait: time.Since(t.enqueued)}}, err)
	}
}

// frameContext returns a context that ends once every task's context has
// ended, so a frame is abandoned only when no job in it still wants the
// answer. release frees the context.
func frameContext(tasks []*task) (ctx context.Context, release func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var live atomic.Int64
	live.Store(int64(len(tasks)))
	stops := make([]func() bool, len(tasks))
	for i, t := range tasks {
		stops[i] = context.AfterFunc(t.ctx, func() {
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
func (s *Shard) send(ctx context.Context, tasks []*task) (retry []*task, lastErr error, answered bool) {
	// Install every distinct scheme once. A job whose scheme does not
	// install waits for the next attempt; its frame-mates ship.
	ready := make([]*task, 0, len(tasks))
	states := make([]*schemeState, 0, len(tasks))
	installs := make(map[*schemeState]error, 1)
	for _, t := range tasks {
		st := s.stateFor(t.job.Scheme)
		err, done := installs[st]
		if !done {
			err = s.ensure(ctx, st)
			installs[st] = err
		}
		if err != nil {
			retry, lastErr = append(retry, t), err
			continue
		}
		ready = append(ready, t)
		states = append(states, st)
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
			Scheme: states[i].id,
			Noise:  t.job.Noise.Canon().String(),
			Trace:  t.job.TraceID,
			K:      t.job.K,
			Y:      t.job.Y,
		}
		if t.job.Dec != nil {
			jobs[i].Decoder = t.job.Dec.Name()
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
			s.fail([]*task{t}, fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err))
		case batchNotFound:
			// The worker restarted or evicted the scheme: re-install and
			// retry.
			states[i].unensure()
			fallthrough
		default: // unavailable, or saturated from an older worker
			retry, lastErr = append(retry, t), fmt.Errorf("remote: worker %s: %s", s.opts.Addr, r.Err)
		}
	}
	return retry, lastErr, true
}

// settleOK settles one job's OK result and records its stages, once per
// job however jobs were packed into frames: serialize is the job's share
// of the frame's marshal, network the round trip minus the job's own
// worker queue and decode time (no clock sync needed), and the trace
// gets the matching wire spans.
func (s *Shard) settleOK(t *task, r *batchResult, serializeStart time.Time, serialize time.Duration, reqStart time.Time, roundTrip time.Duration) {
	clientWait := serializeStart.Sub(t.enqueued)
	queue, decode := time.Duration(r.QueueNS), time.Duration(r.DecodeNS)
	network := max(roundTrip-queue-decode, 0)
	s.mStage.With(s.opts.Addr, "serialize").ObserveDuration(serialize)
	s.mStage.With(s.opts.Addr, "network").ObserveDuration(network)
	s.mStage.With(s.opts.Addr, "worker_queue").ObserveDuration(queue)
	s.mStage.With(s.opts.Addr, "worker_decode").ObserveDuration(decode)
	s.mStage.With(s.opts.Addr, "total").ObserveDuration(serialize + roundTrip)
	t.job.Trace.Span("shard_queue", trace.TierFrontend, 0, t.enqueued, clientWait)
	addWireSpans(t.job.Trace, serializeStart, serialize, reqStart, roundTrip, network, r.QueueNS, r.DecodeNS)
	support := r.Support
	if support == nil {
		// A frame carries an empty support as none at all; results keep
		// the engine's empty, non-nil slice.
		support = []int{}
	}
	t.settle(engine.Result{
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

// addWireSpans appends one job's wire-stage span subtree to its trace:
// a "wire" parent covering marshal + round trip, with serialize and
// network children measured on this side of the hop, and worker_queue /
// worker_decode children synthesized from the durations the worker
// reported back in the job's result. The worker spans are laid at the
// tail of the request window, so the tree nests sensibly without any
// cross-machine clock sync. Nil-safe via the builder.
func addWireSpans(tb *trace.Builder, serializeStart time.Time, serialize time.Duration, reqStart time.Time, roundTrip, network time.Duration, queueNS, decodeNS int64) {
	if tb == nil {
		return
	}
	wireDur := reqStart.Add(roundTrip).Sub(serializeStart)
	wire := tb.Span("wire", trace.TierFrontend, 0, serializeStart, wireDur)
	tb.Span("serialize", trace.TierFrontend, wire, serializeStart, serialize)
	tb.Span("network", trace.TierFrontend, wire, reqStart, network)
	workerDur := time.Duration(queueNS + decodeNS)
	workerStart := reqStart.Add(roundTrip - workerDur)
	if workerStart.Before(reqStart) {
		workerStart = reqStart
	}
	tb.Span("worker_queue", trace.TierWorker, wire, workerStart, time.Duration(queueNS))
	tb.Span("worker_decode", trace.TierWorker, wire, workerStart.Add(time.Duration(queueNS)), time.Duration(decodeNS))
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

// ensure ships the scheme's design, in its binary form, to the worker if
// this client hasn't (or a 404 told it the worker lost it). Serialized
// per scheme; idempotent on the worker. A worker that cannot parse the
// body (a version skew answers 415 or 400) fails the install with its
// reason.
func (s *Shard) ensure(ctx context.Context, st *schemeState) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ensured {
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
	st.ensured = true
	return nil
}

func (s *Shard) probeLoop() {
	defer close(s.probeDone)
	interval := s.opts.probeInterval()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	// Eviction state lives entirely in this goroutine: OnEvict/OnRejoin
	// fire from here and nowhere else, so the frontend's hooks need no
	// synchronization of their own.
	failures, evicted := 0, false
	step := func() {
		if s.probe() {
			failures = 0
			if evicted {
				evicted = false
				s.log.Info("worker rejoining after eviction")
				if s.opts.OnRejoin != nil {
					s.opts.OnRejoin()
				}
			}
			return
		}
		failures++
		if n := s.opts.evictAfter(); !evicted && n > 0 && failures >= n {
			evicted = true
			s.log.Warn("worker evicted after consecutive probe failures", "failures", failures)
			if s.opts.OnEvict != nil {
				s.opts.OnEvict()
			}
		}
	}
	step()
	for {
		select {
		case <-tick.C:
			step()
		case <-s.stop:
			return
		}
	}
}

func (s *Shard) probe() bool {
	// A fixed timeout rather than the (possibly very short) probe
	// interval: probes run sequentially in the loop, so a slow one just
	// delays the next tick instead of overlapping it — and a tight
	// interval must not misread a slow-but-alive worker as dead.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+healthPath, nil)
	if err != nil {
		s.setHealthy(false, "probe request: "+err.Error())
		return false
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		s.setHealthy(false, "probe: "+err.Error())
		return false
	}
	defer drainClose(resp.Body)
	var h healthResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || !h.OK {
		s.setHealthy(false, fmt.Sprintf("probe status %d", resp.StatusCode))
		return false
	}
	s.gauges.Store(&h)
	s.setHealthy(true, "probe ok")
	return true
}

// drainClose discards the rest of a response body and closes it, so the
// underlying connection is reusable.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 64<<10))
	rc.Close()
}
