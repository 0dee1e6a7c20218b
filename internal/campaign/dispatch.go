package campaign

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"pooleddata/internal/engine"
	"pooleddata/metrics/trace"
)

// Fair cross-tenant dispatch: admitted campaign jobs do not go straight
// to the owning shard's queue. They wait in per-tenant queues, and one
// dispatcher goroutine hands them to the cluster in round-robin order
// across tenants — so a tenant that submits a thousand-job campaign
// first does not serialize every other tenant behind it, which is what
// the old FIFO per-campaign fan-out did. Within a tenant the queue is
// split per target shard (a campaign's jobs all decode on its scheme's
// owning shard), and the tenant's turns rotate across its shards: one
// campaign stuck behind a wedged shard cannot stall the same tenant's
// campaigns on idle shards. Backpressure is cooperative: the dispatcher
// offers jobs with engine.Offer (TrySubmit without the rejection
// accounting) and keeps a saturated queue's head job on its side,
// retrying on a short backoff, so a full shard stalls only the work it
// owns.

// saturationBackoff is how long the dispatcher parks when every
// dispatchable head job hit a saturated shard queue. Short enough that
// a draining worker is picked up promptly, long enough not to spin.
const saturationBackoff = 2 * time.Millisecond

// maxRedispatches bounds how many times one job is requeued after
// shard-unavailable failures before it settles with the error. Each
// attempt re-resolves ownership against the current ring, and a dead
// worker flips unhealthy on its first failed round trip, so one or two
// attempts normally suffice; the bound exists for fleets with no
// survivors, where the campaign must still terminate.
const maxRedispatches = 8

// pendingJob is one admitted job awaiting dispatch. queuedAt marks the
// start of the current tenant-queue episode: stamped at admission,
// preserved across saturation requeues (same wait, still the head), and
// re-stamped on redispatch after a shard death (a new episode).
type pendingJob struct {
	cp       *Campaign
	job      engine.Job
	queuedAt time.Time
}

// settle settles a job that never reached a shard, or that its shard
// refused, through the job's OnDone: the path an engine settle takes.
// A shard-unavailable error the dispatcher could not requeue is not
// requeued by OnDone either: every reason maybeRedispatch refuses for
// (a dead campaign, a spent budget, a closed store) is permanent.
func (pj pendingJob) settle(err error) {
	pj.job.OnDone(engine.Result{Tag: pj.job.Tag, TraceID: pj.job.TraceID}, err)
}

// fifo is a head-indexed job queue: pop and push-front are O(1) — a
// saturated head job is requeued every retry cycle, so the queue must
// not be copied each time.
type fifo struct {
	jobs []pendingJob
	head int
}

func (q *fifo) len() int { return len(q.jobs) - q.head }

func (q *fifo) push(pj pendingJob) { q.jobs = append(q.jobs, pj) }

func (q *fifo) pop() pendingJob {
	pj := q.jobs[q.head]
	q.jobs[q.head] = pendingJob{} // release references
	q.head++
	if q.head == len(q.jobs) {
		q.jobs, q.head = q.jobs[:0], 0
	}
	return pj
}

// pushFront restores a just-popped job to the head. The popped slot is
// normally still free (pop only advances head); the copying prepend is
// only reachable when a concurrent purge rebuilt the queue (resetting
// head) while this job was out for dispatch.
func (q *fifo) pushFront(pj pendingJob) {
	if q.head > 0 {
		q.head--
		q.jobs[q.head] = pj
		return
	}
	if len(q.jobs) == 0 {
		q.jobs = append(q.jobs, pj)
		return
	}
	q.jobs = append([]pendingJob{pj}, q.jobs...)
}

// replace swaps in a rebuilt queue (purge filtering), dropping the
// consumed head region.
func (q *fifo) replace(jobs []pendingJob) { q.jobs, q.head = jobs, 0 }

// tenantState is one tenant's dispatch queues and quota accounting.
type tenantState struct {
	// byShard holds the tenant's pending jobs keyed by the engine shard
	// they target; shards is the rotation order for the tenant's turns.
	byShard map[int]*fifo
	shards  []int
	rrPos   int
	// unsettled counts admitted jobs that have not yet settled
	// (pending + on shard queues + inside decoders) — the quota
	// Config.TenantMaxQueued bounds. Charged under the store's lock;
	// released by settles under their campaign's lock alone.
	unsettled atomic.Int64
}

func (ts *tenantState) pendingLen() int {
	n := 0
	for _, q := range ts.byShard {
		n += q.len()
	}
	return n
}

func (ts *tenantState) queueFor(shard int) *fifo {
	q, ok := ts.byShard[shard]
	if !ok {
		if ts.byShard == nil {
			ts.byShard = make(map[int]*fifo)
		}
		q = &fifo{}
		ts.byShard[shard] = q
		ts.shards = append(ts.shards, shard)
	}
	return q
}

func jobShard(pj pendingJob) int { return pj.job.Scheme.Home() }

func (ts *tenantState) push(pj pendingJob) { ts.queueFor(jobShard(pj)).push(pj) }

func (ts *tenantState) pushFront(pj pendingJob) { ts.queueFor(jobShard(pj)).pushFront(pj) }

// pop takes the head job of the tenant's next non-empty shard queue in
// rotation. Callers check pendingLen() > 0 first.
func (ts *tenantState) pop() pendingJob {
	for i := 0; i < len(ts.shards); i++ {
		q := ts.byShard[ts.shards[ts.rrPos%len(ts.shards)]]
		ts.rrPos++
		if q.len() > 0 {
			return q.pop()
		}
	}
	panic("campaign: pop on empty tenant queue")
}

// tenantLocked returns (creating if needed) the tenant's state.
func (st *Store) tenantLocked(name string) *tenantState {
	ts, ok := st.tenants[name]
	if !ok {
		ts = &tenantState{}
		st.tenants[name] = ts
		st.rr = append(st.rr, name)
		// Growing the rotation re-maps rrPos onto a possibly different
		// tenant; leftover mid-turn credits must not transfer to it.
		st.rrCredits = -1
	}
	return ts
}

// signalWake nudges the dispatcher; coalesces when one is pending.
func (st *Store) signalWake() {
	select {
	case st.wake <- struct{}{}:
	default:
	}
}

// jobSettled is the Campaign → Store accounting hook, called once per
// charged job as it settles, under the campaign's lock: it returns the
// job's quota to ts and, for completed jobs, feeds the tenant's
// decode-latency histogram. Neither takes st.mu, which ranks before
// campaign locks.
func (st *Store) jobSettled(ts *tenantState, tenant string, decodeNS int64, completed bool) {
	if completed {
		st.latency.Observe(tenant, time.Duration(decodeNS))
	}
	ts.unsettled.Add(-1)
}

// weightOf is the tenant's dispatch weight: jobs offered per rotation
// turn. Unconfigured tenants (and weights below 1) weigh 1.
func (st *Store) weightOf(tenant string) int {
	if w := st.cfg.TenantWeights[tenant]; w > 1 {
		return w
	}
	return 1
}

// advanceTenantLocked moves the rotation to the next tenant and resets
// the turn credits to "uninitialized" (looked up on arrival, so weight
// config applies even to tenants that appear mid-rotation).
func (st *Store) advanceTenantLocked() {
	st.rrPos++
	st.rrCredits = -1
	st.rotations.Add(1)
}

// purgeCanceled pulls a canceled campaign's undispatched jobs out of
// its tenant queues and settles them immediately, so cancellation is
// prompt even when the queue's head job is stuck behind a saturated
// shard. Called without campaign locks held.
func (st *Store) purgeCanceled(cp *Campaign) {
	st.mu.Lock()
	var mine []pendingJob
	if ts, ok := st.tenants[cp.tenant]; ok {
		for _, q := range ts.byShard {
			var keep []pendingJob
			for _, pj := range q.jobs[q.head:] {
				if pj.cp == cp {
					mine = append(mine, pj)
				} else {
					keep = append(keep, pj)
				}
			}
			q.replace(keep)
		}
		st.pendingTotal -= len(mine)
	}
	st.mu.Unlock()
	for _, pj := range mine {
		pj.settle(context.Canceled)
	}
}

// nextPending pops the next job in the two-level weighted rotation
// (tenants, then the tenant's shards): the tenant at the rotation
// cursor is offered up to weightOf(tenant) jobs before the cursor
// advances, so `-tenant-weights t1=3` drains t1 three jobs per turn.
// With all weights 1 this is exactly the old equal-turn round robin.
func (st *Store) nextPending() (pj pendingJob, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pendingTotal == 0 || len(st.rr) == 0 {
		return pendingJob{}, false
	}
	// Each iteration either pops (and returns) or advances past a tenant
	// with nothing pending, so len(rr)+1 iterations suffice.
	for i := 0; i < len(st.rr)+1; i++ {
		name := st.rr[st.rrPos%len(st.rr)]
		ts := st.tenants[name]
		if ts == nil || ts.pendingLen() == 0 {
			st.advanceTenantLocked()
			continue
		}
		if st.rrCredits < 0 {
			st.rrCredits = st.weightOf(name)
			st.creditsGiven.Add(uint64(st.rrCredits))
		}
		st.pendingTotal--
		pj = ts.pop()
		st.rrCredits--
		if st.rrCredits == 0 {
			st.advanceTenantLocked()
		}
		return pj, true
	}
	return pendingJob{}, false
}

// busyQueues counts the (tenant, shard) queues with pending jobs — the
// dispatcher's "full rotation" size for deciding when every
// dispatchable head job hit a saturated shard. Counting queues rather
// than tenants matters inside a single tenant too: its campaign on a
// wedged shard must not trigger the backoff while its campaign on an
// idle shard still has work. Only computed on the saturated path, not
// per dispatched job.
func (st *Store) busyQueues() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, ts := range st.tenants {
		for _, q := range ts.byShard {
			if q.len() > 0 {
				n++
			}
		}
	}
	return n
}

// requeueFront puts a job whose shard was saturated back at the front
// of its shard queue, preserving FIFO order there.
func (st *Store) requeueFront(pj pendingJob) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.tenantLocked(pj.cp.tenant).pushFront(pj)
	st.pendingTotal++
}

// maybeRedispatch requeues a job that failed because its shard was
// unavailable, charging the campaign's per-job budget and bumping
// counter. It reports whether the job was requeued; false means the
// caller settles the job with its error (campaign canceled/expired,
// budget spent, or store closed). Runs on engine/remote worker
// goroutines (the OnDone path) and on the dispatcher.
func (st *Store) maybeRedispatch(pj pendingJob, counter *atomic.Uint64) bool {
	if pj.cp.ctx.Err() != nil {
		return false
	}
	if !pj.cp.allowRedispatch(pj.job.Tag, maxRedispatches) {
		return false
	}
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return false
	}
	// Push to the back of the tenant's queue for the scheme's shard: the
	// orphan rejoins the fair rotation rather than jumping it. jobShard
	// keys on the scheme's creation home; Offer re-resolves the real
	// owner when the job's turn comes.
	pj.queuedAt = time.Now()
	st.tenantLocked(pj.cp.tenant).push(pj)
	st.pendingTotal++
	st.mu.Unlock()
	counter.Add(1)
	st.signalWake()
	return true
}

// dispatchLoop is the Store's dispatcher goroutine: round-robin across
// tenants (and across shards within a tenant), one job per turn, until
// Close. saturatedStreak counts consecutive Offer calls that hit a full
// shard; only when it covers every (tenant, shard) queue with pending
// work — i.e. every dispatchable head job in the system was stuck —
// does the loop park on the backoff timer. A single saturated shard
// must not throttle tenants or campaigns whose shards have room.
func (st *Store) dispatchLoop() {
	defer close(st.done)
	saturatedStreak := 0
	for {
		pj, ok := st.nextPending()
		if !ok {
			if !st.park(nil) {
				return
			}
			continue
		}
		if err := pj.cp.ctx.Err(); err != nil {
			// The campaign died before its job reached a shard.
			pj.settle(err)
			saturatedStreak = 0
			continue
		}
		_, err := st.cluster.Offer(pj.cp.ctx, pj.job)
		switch {
		case err == nil:
			// Enqueued; the shared OnDone callback settles it. The span is
			// added after the fact (the builder takes it until the job
			// settles), covering admission → the cluster accepting the job:
			// the fair-rotation wait the dispatcher itself imposed.
			if !pj.queuedAt.IsZero() {
				pj.job.Trace.Span("tenant_queue", trace.TierFrontend, 0, pj.queuedAt, time.Since(pj.queuedAt))
			}
			st.dispatched.Add(1)
			saturatedStreak = 0
		case errors.Is(err, engine.ErrSaturated):
			// Backpressure, not rejection: the job goes back to the head of
			// its shard queue and the rotation moves on. Park only once
			// every busy tenant's turn has failed in a row.
			st.requeueFront(pj)
			st.requeues.Add(1)
			if !st.pace(&saturatedStreak) {
				return
			}
		case (errors.Is(err, engine.ErrShardUnavailable) || errors.Is(err, engine.ErrClosed)) &&
			st.maybeRedispatch(pj, &st.redispatchedOffer):
			// The owner was unreachable and no healthy member could take the
			// key (ring lookup already walks past unhealthy shards), or the
			// offer raced an administrative drain and landed on a member
			// closing out of the ring. The job is requeued; pace like
			// saturation so the loop does not spin while the whole fleet is
			// dark. (maybeRedispatch refuses once the store itself closes,
			// so shutdown still settles instead of bouncing.)
			if !st.pace(&saturatedStreak) {
				return
			}
		default:
			pj.settle(err)
			saturatedStreak = 0
		}
	}
}

// pace counts one stuck turn in streak. Once the streak covers every
// busy (tenant, shard) queue it resets and parks the dispatcher for the
// saturation backoff. It reports false when the store closed meanwhile.
func (st *Store) pace(streak *int) bool {
	*streak++
	if *streak < st.busyQueues() {
		return true
	}
	*streak = 0
	return st.park(time.After(saturationBackoff))
}

// park waits for a wake-up, the timeout (nil: none) or Close. On Close
// it settles every job still pending and reports false.
func (st *Store) park(timeout <-chan time.Time) bool {
	select {
	case <-st.wake:
	case <-timeout:
	case <-st.stop:
		st.drainPending()
		return false
	}
	return true
}

// drainPending settles every job still queued at Close so no campaign
// waits forever on jobs that will never dispatch.
func (st *Store) drainPending() {
	st.mu.Lock()
	var all []pendingJob
	for _, ts := range st.tenants {
		for _, q := range ts.byShard {
			all = append(all, q.jobs[q.head:]...)
			q.replace(nil)
		}
	}
	st.pendingTotal = 0
	st.mu.Unlock()
	for _, pj := range all {
		pj.settle(errStoreClosed)
	}
}

// TenantStats is one tenant's gauge block in /v1/stats.
type TenantStats struct {
	// Active and Finished count the tenant's retained campaigns.
	Active   int `json:"active"`
	Finished int `json:"finished"`
	// PendingJobs are admitted jobs still waiting for dispatch;
	// UnsettledJobs additionally counts jobs on shard queues or inside
	// decoders (the TenantMaxQueued quota gauge).
	PendingJobs   int `json:"pending_jobs"`
	UnsettledJobs int `json:"unsettled_jobs"`
	// Weight is the tenant's dispatch weight (jobs per rotation turn).
	Weight int `json:"weight"`
	// DecodeLatency is the tenant's completed-job decode-latency
	// histogram — same bounded buckets as the per-decoder histograms,
	// cumulative over the store's lifetime (it outlives campaign GC).
	DecodeLatency *engine.LatencyHistogram `json:"decode_latency,omitempty"`
}

// Tenants snapshots the per-tenant gauges.
func (st *Store) Tenants() map[string]TenantStats {
	lat := st.latency.Snapshot()
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]TenantStats, len(st.tenants))
	for name, ts := range st.tenants {
		out[name] = TenantStats{PendingJobs: ts.pendingLen(), UnsettledJobs: int(ts.unsettled.Load())}
	}
	for _, cp := range st.byID {
		g := out[cp.tenant]
		if cp.finishedAt().IsZero() {
			g.Active++
		} else {
			g.Finished++
		}
		out[cp.tenant] = g
	}
	// Latency histograms outlive campaign retention: tenants present
	// only in the histogram map still appear, with zero gauges.
	for name, h := range lat {
		g := out[name]
		hh := h
		g.DecodeLatency = &hh
		out[name] = g
	}
	for name, g := range out {
		g.Weight = st.weightOf(name)
		out[name] = g
	}
	return out
}
