// Package campaign is the asynchronous batch-decoding subsystem behind
// pooledd's /v1/campaigns API: a campaign is a batch of measured count
// vectors decoded against one cached scheme through the engine cluster.
// Submission returns immediately; jobs fan out to the scheme's owning
// shard with per-job completion callbacks, progress counters update as
// jobs settle, and clients long-poll, stream, or cancel the campaign by
// id.
//
// Every campaign keeps one settlement log: its results in settle order,
// plus one terminal event stored when the log seals. Result event i is
// result i-1, so the log holds at most Total+1 events, and results can
// be streamed incrementally and resumed from any cursor — the SSE form
// pooledd serves on /v1/campaigns/{id}/events.
// Campaigns belong to tenants: jobs are dispatched to the cluster in
// fair round-robin order across tenants rather than FIFO across
// campaigns, and per-tenant quotas bound active campaigns and queued
// jobs so one heavy tenant cannot monopolize admission.
//
// This is the service form of the paper's operational premise: the
// pooled measurement round is the expensive step, so a lab submits a
// whole plate of count vectors at once and collects reconstructions as
// the cluster drains them — per-item recovered supports, not a terminal
// batch.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/wal"
	"pooleddata/metrics/trace"
)

// DefaultTenant is the tenant campaigns without an explicit tenant are
// accounted under.
const DefaultTenant = "default"

// Config sizes a Store.
type Config struct {
	// MaxActive bounds concurrently unfinished campaigns; 0 means 64.
	MaxActive int
	// Retention is how long finished campaigns stay queryable before GC;
	// 0 means 10 minutes. Canceled campaigns whose in-flight jobs never
	// settle (a wedged decoder) are reaped on the same clock, counted
	// from cancellation.
	Retention time.Duration
	// MaxFinished bounds retained finished campaigns regardless of age;
	// 0 means 256.
	MaxFinished int
	// TenantMaxActive bounds concurrently unfinished campaigns per
	// tenant; 0 means no per-tenant bound (MaxActive still applies).
	TenantMaxActive int
	// TenantMaxQueued bounds unsettled jobs per tenant — jobs admitted
	// but not yet completed, failed, or canceled; 0 means unbounded.
	TenantMaxQueued int
	// TenantWeights sets per-tenant dispatch weights for weighted fair
	// queuing: a tenant with weight w is offered up to w jobs per
	// rotation turn instead of 1, so paying tenants drain faster without
	// starving anyone. Tenants absent from the map (and weights < 1)
	// default to 1, which keeps dispatch the equal-turn round robin.
	TenantWeights map[string]int
	// WAL, when non-nil, journals every campaign to a per-campaign
	// write-ahead log: the spec on Create, one record per settled job,
	// and a terminal seal — what Restore replays after a crash. Nil
	// keeps campaigns memory-only.
	WAL *wal.WAL
	// Traces, when non-nil, turns on span-level tracing for campaign
	// jobs: Create opens one builder per job (id `<ingress id>-<index>`)
	// with an admission span, the dispatcher stamps the tenant-queue
	// wait, the engine and remote client append their own spans, and the
	// campaign seals and offers the trace when the job settles. The
	// store applies its own tail sampling; nil disables tracing with no
	// per-job cost.
	Traces *trace.Store
}

func (c Config) maxActive() int {
	if c.MaxActive <= 0 {
		return 64
	}
	return c.MaxActive
}

func (c Config) retention() time.Duration {
	if c.Retention <= 0 {
		return 10 * time.Minute
	}
	return c.Retention
}

func (c Config) maxFinished() int {
	if c.MaxFinished <= 0 {
		return 256
	}
	return c.MaxFinished
}

// State is a campaign's lifecycle phase.
type State string

const (
	// Running means jobs are still queued or decoding.
	Running State = "running"
	// Done means every job settled and the campaign was not canceled.
	Done State = "done"
	// Canceled means Cancel was called; jobs settle as canceled unless a
	// worker had already started (those still complete).
	Canceled State = "canceled"
	// Expired means the Store reaped the campaign before every job
	// settled (retention GC of a stale canceled campaign): waiters and
	// streams observe it as terminal instead of burning their timeouts.
	Expired State = "expired"
)

// JobResult is one settled decode job of a campaign.
type JobResult struct {
	// Index is the job's position in the submitted batch.
	Index int `json:"index"`
	// Support is the recovered one-entry index set (successful jobs).
	Support []int `json:"support,omitempty"`
	// Residual is the L1 misfit of the estimate against the counts.
	Residual int64 `json:"residual"`
	// Consistent reports whether the estimate reproduces the counts.
	Consistent bool `json:"consistent"`
	// DecodeNS is the time spent inside the decoder.
	DecodeNS int64 `json:"decode_ns"`
	// Decoder is the decoder that ran the job — for campaigns without an
	// explicit decoder, the one the noise policy selected server-side.
	Decoder string `json:"decoder,omitempty"`
	// Error is set for failed or canceled jobs.
	Error string `json:"error,omitempty"`
	// TraceID identifies the job's span trace when tracing is on — the
	// ingress trace id suffixed with the job index, retrievable via
	// GET /v1/traces/{id} — and falls back to the campaign's ingress
	// trace id otherwise, so SSE result events and campaign snapshots
	// always correlate with frontend and worker logs.
	TraceID string `json:"trace_id,omitempty"`
}

// Progress is a point-in-time view of a campaign. Completed, Failed,
// and Canceled are monotone: they only grow until their sum reaches
// Total.
type Progress struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant,omitempty"`
	State  State  `json:"state"`
	Total  int    `json:"total"`

	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	Canceled  int `json:"canceled"`
	// Noise is the campaign's canonical noise model, present when the
	// campaign was submitted with a non-exact model.
	Noise *noise.Model `json:"noise,omitempty"`
	// Results are the settled jobs so far, ascending by Index.
	Results []JobResult `json:"results"`
}

// Settled is the number of jobs that have reached a terminal state.
func (p Progress) Settled() int { return p.Completed + p.Failed + p.Canceled }

// Terminal reports whether the campaign can no longer change.
func (p Progress) Terminal() bool { return p.State != Running }

// Campaign is one asynchronous batch decode. All methods are safe for
// concurrent use.
type Campaign struct {
	id     string
	tenant string
	total  int
	noise  noise.Model // canonical; zero means exact
	trace  string      // ingress trace id, stamped on every JobResult
	ctx    context.Context
	cancel context.CancelFunc

	// Store hooks. onSettled runs under mu for every settle whose quota
	// is still charged, before the settle is published, so a reader that
	// sees the terminal state also sees the last job's tenant accounting
	// (quota plus, for completed jobs, the per-tenant decode-latency
	// histogram); it must not take the store's lock, which ranks before
	// mu. onCancel runs without mu after Cancel (purging the campaign's
	// undispatched jobs from the tenant queue).
	onSettled func(decodeNS int64, completed bool)
	onCancel  func()

	mu sync.Mutex
	// jnl journals settlements to the store's WAL. Guarded by mu so the
	// journaled record order matches the event-log order, and detached
	// (set nil) on graceful shutdown: store-closed settles must not
	// reach the log, or an unfinished campaign could never resume.
	jnl           *wal.WAL
	canceledFlag  bool
	expiredFlag   bool
	quotaReleased bool // expiry already returned the unsettled jobs' quota
	// redisp counts per-job re-dispatches after shard-unavailable
	// failures, keyed by batch index — the budget that keeps a campaign
	// terminating when no healthy shard ever appears.
	redisp       map[int]int
	completed    int
	failed       int
	canceledJobs int
	// results is the settlement log: allocated once at total capacity and
	// appended in settle order, so result event i is results[i-1], and an
	// element never moves or changes once appended.
	results []JobResult
	// done is the terminal event, stored when the log seals. Its Seq
	// freezes the stream's length: a job that settles after expiry counts
	// in results and Progress but is not streamed.
	done       Event
	sealed     bool
	changed    chan struct{} // closed and replaced on every update
	finished   time.Time     // set when the last job settles
	canceledAt time.Time     // set on the first Cancel
}

// ID returns the campaign id.
func (cp *Campaign) ID() string { return cp.id }

// Tenant returns the tenant the campaign is accounted under.
func (cp *Campaign) Tenant() string { return cp.tenant }

// Total returns the number of submitted jobs.
func (cp *Campaign) Total() int { return cp.total }

func (cp *Campaign) settledLocked() int { return cp.completed + cp.failed + cp.canceledJobs }

func (cp *Campaign) stateLocked() State {
	switch {
	case cp.expiredFlag:
		return Expired
	case cp.canceledFlag:
		return Canceled
	case cp.settledLocked() == cp.total:
		return Done
	default:
		return Running
	}
}

// countsLocked is the campaign's progress without its results.
func (cp *Campaign) countsLocked() Progress {
	p := Progress{
		ID: cp.id, Tenant: cp.tenant, State: cp.stateLocked(), Total: cp.total,
		Completed: cp.completed, Failed: cp.failed, Canceled: cp.canceledJobs,
	}
	if !cp.noise.IsExact() {
		nm := cp.noise
		p.Noise = &nm
	}
	return p
}

func (cp *Campaign) progressLocked() Progress {
	p := cp.countsLocked()
	p.Results = append([]JobResult(nil), cp.results...)
	sort.Slice(p.Results, func(i, j int) bool { return p.Results[i].Index < p.Results[j].Index })
	return p
}

// Progress snapshots the campaign.
func (cp *Campaign) Progress() Progress {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.progressLocked()
}

// notifyLocked wakes every long-poll waiter and event streamer.
func (cp *Campaign) notifyLocked() {
	close(cp.changed)
	cp.changed = make(chan struct{})
}

// settle records one job outcome. It runs on engine worker goroutines
// (via the shared OnDone callback, routed by Result.Tag) and on the
// dispatcher for jobs that never enqueued.
func (cp *Campaign) settle(idx int, res engine.Result, err error) {
	jr := JobResult{Index: idx, TraceID: cp.trace}
	if res.TraceID != "" {
		jr.TraceID = res.TraceID
	}
	canceled := false
	switch {
	case err == nil:
		jr.Support = res.Support
		jr.Residual = res.Stats.Residual
		jr.Consistent = res.Stats.Consistent
		jr.DecodeNS = int64(res.Stats.DecodeTime)
		jr.Decoder = res.Decoder
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		canceled = true
		jr.Error = err.Error()
	default:
		jr.Error = err.Error()
	}

	status := wal.StatusCompleted
	switch {
	case canceled:
		status = wal.StatusCanceled
	case err != nil:
		status = wal.StatusFailed
	}

	cp.mu.Lock()
	// An expired campaign's quota was returned in bulk when GC reaped it;
	// a straggler job settling afterwards must not release it twice.
	if !cp.quotaReleased && cp.onSettled != nil {
		cp.onSettled(jr.DecodeNS, err == nil)
	}
	switch {
	case err == nil:
		cp.completed++
	case canceled:
		cp.canceledJobs++
	default:
		cp.failed++
	}
	cp.results = append(cp.results, jr)
	if !cp.sealed {
		cp.journalEventLocked(int64(len(cp.results)), status, &jr)
	}
	if cp.settledLocked() == cp.total {
		cp.finished = time.Now()
		cp.sealLocked()
	}
	cp.notifyLocked()
	cp.mu.Unlock()
}

// allowRedispatch charges one unit of job idx's re-dispatch budget.
// It refuses — so the job settles with its error instead of requeueing —
// once the campaign is terminal-bound (canceled, expired, sealed) or the
// budget is spent: with no healthy shard ever appearing, the campaign
// must still terminate, exactly as it did before elastic membership.
func (cp *Campaign) allowRedispatch(idx, limit int) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.canceledFlag || cp.expiredFlag || cp.sealed {
		return false
	}
	if cp.redisp == nil {
		cp.redisp = make(map[int]int)
	}
	if cp.redisp[idx] >= limit {
		return false
	}
	cp.redisp[idx]++
	return true
}

// journalEventLocked appends one settled job to the WAL, mirroring the
// result just appended to the in-memory log (same sequence number, so
// SSE Last-Event-ID cursors survive a restart). Append failures are
// logged, not propagated: mid-flight durability errors must not take
// down a live decode — the job simply re-dispatches on the next boot.
func (cp *Campaign) journalEventLocked(seq int64, status wal.Status, jr *JobResult) {
	if cp.jnl == nil {
		return
	}
	err := cp.jnl.Append(cp.id, wal.EventRecord{
		Seq: seq, Index: jr.Index, Status: status,
		Decoder: jr.Decoder, Error: jr.Error,
		Residual: jr.Residual, Consistent: jr.Consistent,
		DecodeNS: jr.DecodeNS, Support: jr.Support,
	})
	if err != nil {
		slog.Warn("campaign: wal append failed", "campaign", cp.id, "err", err)
	}
}

// detachJournal disconnects the campaign from the WAL. Graceful
// shutdown detaches every campaign before settling pending jobs as
// store-closed: those settles are shutdown artifacts, not outcomes, and
// journaling them would make the campaign unresumable.
func (cp *Campaign) detachJournal() {
	cp.mu.Lock()
	cp.jnl = nil
	cp.mu.Unlock()
}

// Cancel stops the campaign: jobs not yet dispatched (or still queued
// on the shard) settle as canceled; jobs already inside a decoder run
// to completion and still count. Canceling a campaign whose jobs have
// all settled is a no-op — Done stays Done.
func (cp *Campaign) Cancel() {
	// The flag must be set before the context dies: workers settle every
	// queued job the instant the context cancels, and the last settle
	// seals the log with the state it observes — flag-after-cancel could
	// seal a canceled campaign as "done".
	cp.mu.Lock()
	if !cp.canceledFlag && cp.settledLocked() < cp.total {
		cp.canceledFlag = true
		cp.canceledAt = time.Now()
		if cp.jnl != nil {
			// Journaled before the context dies for the same reason as the
			// flag: a crash right after the cancel must not replay the
			// campaign back to running.
			if err := cp.jnl.CancelMark(cp.id); err != nil {
				slog.Warn("campaign: wal cancel mark failed", "campaign", cp.id, "err", err)
			}
		}
		cp.notifyLocked()
	}
	cp.mu.Unlock()
	cp.cancel()
	if cp.onCancel != nil {
		cp.onCancel()
	}
}

// expire marks the campaign terminal on behalf of Store.GC: parked
// waiters wake with a terminal progress and event streams receive their
// closing event instead of waiting out their timeouts against a
// campaign the store no longer knows. It returns the number of
// unsettled jobs whose tenant quota the caller must release in bulk —
// those jobs may never settle (the reap premise is a wedged decoder),
// and any straggler that does settle later skips the per-job release.
// Settled campaigns are unaffected (their terminal event already
// exists) and return 0.
func (cp *Campaign) expire() (releasedQuota int) {
	// Flag and seal before canceling, for the same reason as Cancel: the
	// terminal event must carry the expired state, not whatever the last
	// racing settle would observe.
	cp.mu.Lock()
	if cp.settledLocked() < cp.total && !cp.expiredFlag {
		cp.expiredFlag = true
		cp.quotaReleased = true
		releasedQuota = cp.total - cp.settledLocked()
		cp.sealLocked()
		cp.notifyLocked()
	}
	cp.mu.Unlock()
	cp.cancel()
	return releasedQuota
}

// terminalLocked reports whether Wait has nothing left to wait for.
func (cp *Campaign) terminalLocked() bool {
	return cp.settledLocked() == cp.total || cp.expiredFlag
}

// Wait long-polls the campaign: it returns the current progress as soon
// as the campaign is terminal with all jobs settled (or expired by GC),
// or after d has elapsed (or ctx fired), whichever comes first.
// Intermediate updates re-arm the wait, so a sequence of Wait calls
// observes monotonically increasing Settled().
func (cp *Campaign) Wait(ctx context.Context, d time.Duration) Progress {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		cp.mu.Lock()
		if cp.terminalLocked() {
			p := cp.progressLocked()
			cp.mu.Unlock()
			return p
		}
		ch := cp.changed
		cp.mu.Unlock()
		select {
		case <-ch:
		case <-timer.C:
			return cp.Progress()
		case <-ctx.Done():
			return cp.Progress()
		}
	}
}

// finishedAt returns when the last job settled (zero while running).
func (cp *Campaign) finishedAt() time.Time {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.finished
}

// staleCanceled reports whether the campaign was canceled longer than
// retention ago and still has unsettled jobs — the reap condition for
// campaigns wedged by a decoder that never returns.
func (cp *Campaign) staleCanceled(now time.Time, retention time.Duration) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.canceledFlag && cp.settledLocked() < cp.total &&
		!cp.canceledAt.IsZero() && now.Sub(cp.canceledAt) > retention
}

// ErrTooManyCampaigns is returned by Create when MaxActive campaigns
// are already unfinished — the campaign-level admission-control signal.
var ErrTooManyCampaigns = errors.New("campaign: too many active campaigns")

// ErrTenantQuota is returned by Create when the submitting tenant's
// MaxActive-campaigns or max-queued-jobs quota is exhausted. Other
// tenants are unaffected — the point of per-tenant admission.
var ErrTenantQuota = errors.New("campaign: tenant quota exhausted")

// errStoreClosed settles jobs still pending when the Store closes.
var errStoreClosed = errors.New("campaign: store closed")

// Request describes a campaign submission.
type Request struct {
	// Scheme is the cached scheme every job decodes against.
	Scheme *engine.Scheme
	// Batch holds one measured count vector per job.
	Batch [][]int64
	// K is the signal Hamming weight.
	K int
	// Tenant attributes the campaign for quota accounting and fair
	// dispatch; empty means DefaultTenant.
	Tenant string
	// Noise declares how the batch was measured; the zero value means
	// exact counts. The model applies to every job of the campaign: it
	// drives server-side decoder selection (when Dec is nil), widens the
	// per-job consistency slack, and is reported back in Progress.
	Noise noise.Model
	// Dec selects the decoder explicitly, overriding the noise policy;
	// nil means the policy's pick (the MN-Algorithm for exact batches).
	Dec decoder.Decoder
	// TraceID is the ingress trace identifier of the request that created
	// the campaign; it is carried on every job of the batch (and over the
	// remote shard wire) and echoed in every JobResult.
	TraceID string
	// SchemeRef is an opaque description of Scheme that the caller can
	// resolve back to a live *engine.Scheme at recovery time (pooledd
	// uses a JSON form of its registry entry). Only journaled; ignored
	// when the store has no WAL.
	SchemeRef string
}

func (r Request) tenant() string {
	if r.Tenant == "" {
		return DefaultTenant
	}
	return r.Tenant
}

// Store owns campaign lifecycle: creation (with admission control
// against the owning shard's queue and per-tenant quotas), lookup,
// cancellation, fair cross-tenant dispatch, and GC of finished
// campaigns.
type Store struct {
	cluster *engine.Cluster
	cfg     Config

	// latency holds the per-tenant decode-latency histograms served in
	// /v1/stats; bounded because tenant names are caller-controlled.
	latency *engine.LatencySet

	// Dispatcher and GC counters for the metrics surface: jobs handed to
	// the cluster, tenant rotation turns, credit grants, saturated-shard
	// requeues, campaigns reaped by GC, and reaped campaigns that expired
	// with unsettled jobs.
	dispatched    atomic.Uint64
	rotations     atomic.Uint64
	creditsGiven  atomic.Uint64
	requeues      atomic.Uint64
	gcCollected   atomic.Uint64
	expiredReaped atomic.Uint64
	// Orphan re-dispatch counters, by discovery path: a job that settled
	// with a shard-unavailable error (the dead worker's in-flight work)
	// vs. an Offer the dispatcher saw fail synchronously.
	redispatchedDead  atomic.Uint64
	redispatchedOffer atomic.Uint64

	mu           sync.Mutex
	nextID       int
	byID         map[string]*Campaign
	tenants      map[string]*tenantState
	rr           []string // tenant rotation order for fair dispatch
	rrPos        int
	rrCredits    int // weighted turns left for the tenant at rrPos; <0 = uninitialized
	pendingTotal int
	closed       bool

	wake chan struct{} // buffered(1): pending work for the dispatcher
	stop chan struct{}
	done chan struct{} // dispatcher exited

	stopOnce sync.Once
}

// NewStore creates a Store over the cluster and starts its dispatcher.
// Release the dispatcher with Close when the store is no longer needed
// (a long-lived service can let it live for the process lifetime).
func NewStore(cluster *engine.Cluster, cfg Config) *Store {
	st := newStore(cluster, cfg)
	go st.dispatchLoop()
	return st
}

// newStore builds a Store without starting the dispatcher — tests use
// it to observe the pending queues deterministically.
func newStore(cluster *engine.Cluster, cfg Config) *Store {
	return &Store{
		cluster:   cluster,
		cfg:       cfg,
		latency:   engine.NewLatencySet(64),
		byID:      make(map[string]*Campaign),
		tenants:   make(map[string]*tenantState),
		rrCredits: -1,
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Close stops the dispatcher; jobs still pending dispatch settle as
// failed with a store-closed error so their campaigns terminate.
// Campaigns already on shard queues drain through the engine as usual.
// Journaled campaigns are detached from the WAL first: the shutdown
// settles are not outcomes, and keeping them out of the log is what
// lets an unfinished campaign resume on the next boot.
func (st *Store) Close() {
	st.stopOnce.Do(func() {
		st.mu.Lock()
		st.closed = true
		var cps []*Campaign
		if st.cfg.WAL != nil {
			cps = make([]*Campaign, 0, len(st.byID))
			for _, cp := range st.byID {
				cps = append(cps, cp)
			}
		}
		st.mu.Unlock()
		for _, cp := range cps {
			cp.detachJournal()
		}
		close(st.stop)
	})
	<-st.done
}

// Create validates and admits a campaign, then queues its jobs for fair
// dispatch and returns immediately. It returns engine.ErrSaturated when
// the owning shard's decode queue is full (the rejected jobs count
// toward that shard's Stats.JobsRejected), ErrTooManyCampaigns when
// MaxActive campaigns are already running, and ErrTenantQuota when the
// tenant's own campaign or queued-job quota is exhausted.
func (st *Store) Create(req Request) (*Campaign, error) {
	admitStart := time.Now()
	if req.Scheme == nil || req.Scheme.G == nil {
		return nil, fmt.Errorf("campaign: no scheme")
	}
	if len(req.Batch) == 0 {
		return nil, fmt.Errorf("campaign: empty batch")
	}
	if req.K < 0 || req.K > req.Scheme.G.N() {
		return nil, fmt.Errorf("campaign: weight k=%d out of [0,%d]", req.K, req.Scheme.G.N())
	}
	m := req.Scheme.G.M()
	for i, y := range req.Batch {
		if len(y) != m {
			return nil, fmt.Errorf("campaign: job %d has %d counts for %d queries", i, len(y), m)
		}
	}
	if err := req.Noise.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	// A batch bigger than the whole per-tenant queue quota can never be
	// admitted no matter how long the client waits — that is a
	// validation error (non-retryable), not a quota rejection.
	if st.cfg.TenantMaxQueued > 0 && len(req.Batch) > st.cfg.TenantMaxQueued {
		return nil, fmt.Errorf("campaign: batch of %d jobs exceeds the per-tenant queue quota of %d; split the batch", len(req.Batch), st.cfg.TenantMaxQueued)
	}
	// Admission control: a saturated owning shard rejects the whole batch
	// up front instead of buffering it behind an already-full queue.
	shard := st.cluster.Owner(req.Scheme)
	if shard.Saturated() {
		shard.NoteRejected(len(req.Batch))
		return nil, engine.ErrSaturated
	}
	tenant := req.tenant()

	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, errStoreClosed
	}
	st.gcLocked(time.Now())
	if st.activeLocked() >= st.cfg.maxActive() {
		st.mu.Unlock()
		return nil, ErrTooManyCampaigns
	}
	if st.cfg.TenantMaxActive > 0 && st.tenantActiveLocked(tenant) >= st.cfg.TenantMaxActive {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q at %d active campaigns", ErrTenantQuota, tenant, st.cfg.TenantMaxActive)
	}
	ts := st.tenantLocked(tenant)
	if st.cfg.TenantMaxQueued > 0 && int(ts.unsettled.Load())+len(req.Batch) > st.cfg.TenantMaxQueued {
		st.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q would exceed %d queued jobs", ErrTenantQuota, tenant, st.cfg.TenantMaxQueued)
	}
	st.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	cp := &Campaign{
		id:      fmt.Sprintf("c%d", st.nextID),
		tenant:  tenant,
		total:   len(req.Batch),
		noise:   req.Noise.Canon(),
		trace:   req.TraceID,
		ctx:     ctx,
		cancel:  cancel,
		results: make([]JobResult, 0, len(req.Batch)),
		changed: make(chan struct{}),
	}
	cp.onSettled = func(decodeNS int64, completed bool) { st.jobSettled(ts, tenant, decodeNS, completed) }
	cp.onCancel = func() { st.purgeCanceled(cp) }
	// Journal the spec before the campaign becomes visible: once Create
	// returns an id, a crash must not forget the campaign. A journal
	// that cannot accept the spec fails the whole admission (the id is
	// returned to the sequence — nothing observed it).
	if st.cfg.WAL != nil {
		dn := ""
		if req.Dec != nil {
			dn = req.Dec.Name()
		}
		err := st.cfg.WAL.Begin(wal.CampaignSpec{
			ID: cp.id, Tenant: tenant, TraceID: req.TraceID,
			SchemeRef: req.SchemeRef, Noise: cp.noise.String(), Decoder: dn,
			K: req.K, Batch: req.Batch,
		})
		if err != nil {
			st.nextID--
			st.mu.Unlock()
			cancel()
			return nil, fmt.Errorf("campaign: journal: %w", err)
		}
		cp.jnl = st.cfg.WAL
	}
	st.byID[cp.id] = cp

	// Queue the jobs for the dispatcher.
	jobs := st.campaignJobs(cp, engine.Job{
		Scheme: req.Scheme, K: req.K, Noise: req.Noise, Dec: req.Dec, TraceID: req.TraceID,
	}, req.Batch, nil)
	ts.unsettled.Add(int64(len(req.Batch)))
	traceBase := req.TraceID
	if st.cfg.Traces != nil && traceBase == "" {
		traceBase = trace.NewID()
	}
	queuedAt := time.Now()
	for i := range jobs {
		if st.cfg.Traces != nil {
			// One trace per job — ingress id + job index — so a single slow
			// job in a thousand-job batch is retrievable on its own. The
			// admission span (validation, quotas, journal) is shared by the
			// whole batch; its offset clamps to the root's start.
			jobs[i].TraceID = fmt.Sprintf("%s-%d", traceBase, i)
			tb := trace.NewBuilder(jobs[i].TraceID, "campaign_job", trace.TierFrontend)
			tb.SetTenant(tenant)
			tb.SetScheme(req.Scheme.RouteKey())
			tb.Span("admission", trace.TierFrontend, 0, admitStart, time.Since(admitStart))
			jobs[i].Trace = tb
		}
		ts.push(pendingJob{cp: cp, job: jobs[i], queuedAt: queuedAt})
	}
	st.pendingTotal += len(req.Batch)
	st.mu.Unlock()

	st.signalWake()
	return cp, nil
}

// campaignJobs builds the engine jobs of a campaign's batch from proto,
// leaving the entries of the jobs in skip (a restored log's settled
// prefix) empty. One OnDone callback is shared by the whole batch; the
// engine routes each settlement back by its tag. A settlement caused by
// the owning shard dying (not by the job) is intercepted and the
// original job re-enters the fair-dispatch queue, where Offer
// re-resolves its owner against the current ring — the dead worker's
// in-flight work migrates to survivors instead of failing the campaign.
// A job that has settled for good drops its entry, so a running
// campaign keeps count vectors only for the jobs still unsettled.
func (st *Store) campaignJobs(cp *Campaign, proto engine.Job, batch [][]int64, skip map[int]bool) []engine.Job {
	jobs := make([]engine.Job, len(batch))
	onDone := func(res engine.Result, err error) {
		if err != nil && errors.Is(err, engine.ErrShardUnavailable) &&
			st.maybeRedispatch(pendingJob{cp: cp, job: jobs[res.Tag]}, &st.redispatchedDead) {
			return
		}
		cp.settle(res.Tag, res, err)
		st.cfg.Traces.Finish(jobs[res.Tag].Trace, err)
		jobs[res.Tag] = engine.Job{}
	}
	for i, y := range batch {
		if !skip[i] {
			jobs[i] = proto
			jobs[i].Y, jobs[i].Tag, jobs[i].OnDone = y, i, onDone
		}
	}
	return jobs
}

// Get returns the campaign with the given id.
func (st *Store) Get(id string) (*Campaign, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cp, ok := st.byID[id]
	return cp, ok
}

// Cancel cancels the campaign with the given id.
func (st *Store) Cancel(id string) (*Campaign, bool) {
	cp, ok := st.Get(id)
	if ok {
		cp.Cancel()
	}
	return cp, ok
}

// List snapshots every retained campaign, ascending by numeric id. The
// snapshots carry counters only (Results nil), read without touching
// the results: a listing of hundreds of finished campaigns must not
// copy every settled job; fetch one campaign by id for its results.
func (st *Store) List() []Progress {
	st.mu.Lock()
	cps := make([]*Campaign, 0, len(st.byID))
	for _, cp := range st.byID {
		cps = append(cps, cp)
	}
	st.mu.Unlock()
	out := make([]Progress, len(cps))
	for i, cp := range cps {
		cp.mu.Lock()
		out[i] = cp.countsLocked()
		cp.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		return campaignSeq(out[i].ID) < campaignSeq(out[j].ID)
	})
	return out
}

// campaignSeq is the number of a "c<n>" campaign id (0 for another
// shape), for ordering; it allocates nothing, as List sorts by it.
func campaignSeq(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "c"))
	return n
}

// Counts reports (active, finished) retained campaigns.
func (st *Store) Counts() (active, finished int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a := st.activeLocked()
	return a, len(st.byID) - a
}

func (st *Store) activeLocked() int {
	n := 0
	for _, cp := range st.byID {
		if cp.finishedAt().IsZero() {
			n++
		}
	}
	return n
}

func (st *Store) tenantActiveLocked(tenant string) int {
	n := 0
	for _, cp := range st.byID {
		if cp.tenant == tenant && cp.finishedAt().IsZero() {
			n++
		}
	}
	return n
}

// GC drops finished campaigns older than the retention window, stale
// canceled campaigns (canceled longer than retention ago but never
// fully settled — a wedged decoder), and, past MaxFinished, the oldest
// finished ones regardless of age. Every dropped campaign is expired
// first so parked waiters and event streams observe a terminal state
// instead of waiting out their timeouts. It returns the number
// collected. Create runs it opportunistically; pooledd also runs it on
// a ticker so idle servers release finished campaigns and their event
// logs.
func (st *Store) GC(now time.Time) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gcLocked(now)
}

func (st *Store) gcLocked(now time.Time) int {
	type fin struct {
		id string
		at time.Time
	}
	var finished []fin
	collected := 0
	reap := func(id string, cp *Campaign) {
		// Wake parked waiters with a terminal progress first, and return
		// the unsettled jobs' quota to the tenant — wedged jobs would
		// otherwise pin TenantMaxQueued forever.
		if released := cp.expire(); released > 0 {
			st.expiredReaped.Add(1)
			if ts, ok := st.tenants[cp.tenant]; ok {
				ts.unsettled.Add(-int64(released))
			}
		}
		delete(st.byID, id)
		// Retention applies to the journal too: a reaped campaign's WAL
		// file would otherwise replay (and re-run) on the next boot.
		st.cfg.WAL.Remove(id)
		st.gcCollected.Add(1)
		collected++
	}
	for id, cp := range st.byID {
		at := cp.finishedAt()
		if at.IsZero() {
			if cp.staleCanceled(now, st.cfg.retention()) {
				reap(id, cp)
			}
			continue
		}
		if now.Sub(at) > st.cfg.retention() {
			reap(id, cp)
			continue
		}
		finished = append(finished, fin{id, at})
	}
	if over := len(finished) - st.cfg.maxFinished(); over > 0 {
		sort.Slice(finished, func(i, j int) bool { return finished[i].at.Before(finished[j].at) })
		for _, f := range finished[:over] {
			reap(f.id, st.byID[f.id])
		}
	}
	st.pruneTenantsLocked()
	return collected
}

// pruneTenantsLocked drops tenant accounting entries with no retained
// campaigns, no pending jobs, and no unsettled jobs.
func (st *Store) pruneTenantsLocked() {
	inUse := make(map[string]bool, len(st.byID))
	for _, cp := range st.byID {
		inUse[cp.tenant] = true
	}
	dropped := false
	for name, ts := range st.tenants {
		if !inUse[name] && ts.unsettled.Load() == 0 && ts.pendingLen() == 0 {
			delete(st.tenants, name)
			dropped = true
		}
	}
	if dropped {
		rr := st.rr[:0]
		for _, name := range st.rr {
			if _, ok := st.tenants[name]; ok {
				rr = append(rr, name)
			}
		}
		st.rr = rr
		// Positions shifted; the cursor may now point at a different
		// tenant, so its remaining turn credits are stale.
		st.rrCredits = -1
	}
}
