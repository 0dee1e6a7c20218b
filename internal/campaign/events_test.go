package campaign

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
)

// newTestStore builds a running store and closes it before the cluster.
func newTestStore(t testing.TB, c *engine.Cluster, cfg Config) *Store {
	t.Helper()
	st := NewStore(c, cfg)
	t.Cleanup(st.Close)
	return st
}

// collectEvents drains a campaign's event log through the cursor API
// until the sealed terminal event, like an SSE subscriber would. It
// returns an error rather than failing the test so it is safe to call
// from subscriber goroutines.
func collectEvents(cp *Campaign, timeout time.Duration) ([]Event, error) {
	deadline := time.After(timeout)
	var out []Event
	var cursor int64
	for {
		evs, changed, sealed := cp.EventsSince(cursor)
		for _, ev := range evs {
			out = append(out, ev)
			cursor = ev.Seq
		}
		if sealed {
			return out, nil
		}
		select {
		case <-changed:
		case <-deadline:
			return out, fmt.Errorf("event stream did not seal; %d events so far", len(out))
		}
	}
}

// mustCollectEvents is collectEvents for the test goroutine.
func mustCollectEvents(t *testing.T, cp *Campaign, timeout time.Duration) []Event {
	t.Helper()
	evs, err := collectEvents(cp, timeout)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestCampaignEventLog(t *testing.T) {
	c := testCluster(t, 2, 2, 0)
	st := newTestStore(t, c, Config{})
	const n, k, m, batch = 300, 5, 240, 8
	s, signals, ys := testBatch(t, c, n, k, m, batch, 17)

	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k})
	if err != nil {
		t.Fatal(err)
	}

	// A live subscriber started before any job settles.
	type streamed struct {
		evs []Event
		err error
	}
	live := make(chan streamed, 1)
	go func() {
		evs, err := collectEvents(cp, 15*time.Second)
		live <- streamed{evs, err}
	}()

	cp.Wait(context.Background(), 15*time.Second)
	evs := mustCollectEvents(t, cp, time.Second) // replay-after-completion subscriber

	check := func(evs []Event) {
		t.Helper()
		if len(evs) != batch+1 {
			t.Fatalf("got %d events, want %d results + 1 done", len(evs), batch)
		}
		seen := make(map[int]bool)
		for i, ev := range evs[:batch] {
			if ev.Seq != int64(i+1) {
				t.Fatalf("event %d has seq %d", i, ev.Seq)
			}
			if ev.Type != EventResult || ev.Job == nil {
				t.Fatalf("event %d = %+v, want result", i, ev)
			}
			if seen[ev.Job.Index] {
				t.Fatalf("job %d settled twice in the log", ev.Job.Index)
			}
			seen[ev.Job.Index] = true
			if !bitvec.FromIndices(n, ev.Job.Support).Equal(signals[ev.Job.Index]) {
				t.Fatalf("event for job %d did not carry its support", ev.Job.Index)
			}
		}
		last := evs[batch]
		if !last.Terminal() || last.State != Done || last.Completed != batch || last.Total != batch {
			t.Fatalf("terminal event = %+v", last)
		}
	}
	check(evs)
	liveOut := <-live
	if liveOut.err != nil {
		t.Fatal(liveOut.err)
	}
	check(liveOut.evs)

	// Resumable cursors: a reconnect from seq 4 replays exactly 5..done.
	tail, _, sealed := cp.EventsSince(4)
	if !sealed || len(tail) != batch+1-4 || tail[0].Seq != 5 {
		t.Fatalf("resume from 4: sealed=%v len=%d first=%+v", sealed, len(tail), tail[0])
	}
	// A cursor at the end sees nothing and knows the stream is over.
	if end, _, sealed := cp.EventsSince(int64(batch + 1)); len(end) != 0 || !sealed {
		t.Fatalf("cursor at end: %d events, sealed=%v", len(end), sealed)
	}
	// Out-of-range cursors clamp instead of panicking.
	if all, _, _ := cp.EventsSince(-3); len(all) != batch+1 {
		t.Fatalf("negative cursor returned %d events", len(all))
	}
	if none, _, _ := cp.EventsSince(99); len(none) != 0 {
		t.Fatalf("past-the-end cursor returned %d events", len(none))
	}
}

func TestCampaignEventsCancelTerminal(t *testing.T) {
	c := testCluster(t, 1, 1, 4)
	st := newTestStore(t, c, Config{})
	const n, k, m, batch = 80, 2, 60, 4
	s, _, ys := testBatch(t, c, n, k, m, batch, 19)

	release := make(chan struct{})
	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	type streamed struct {
		evs []Event
		err error
	}
	done := make(chan streamed, 1)
	go func() {
		evs, err := collectEvents(cp, 15*time.Second)
		done <- streamed{evs, err}
	}()

	deadline := time.Now().Add(time.Second)
	for c.Shard(0).Stats().JobsSubmitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cp.Cancel()
	close(release)

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	evs := out.evs
	last := evs[len(evs)-1]
	if !last.Terminal() || last.State != Canceled {
		t.Fatalf("stream ended with %+v, want terminal canceled", last)
	}
	if len(evs) != batch+1 {
		t.Fatalf("stream delivered %d events, want every settlement + done", len(evs))
	}
	canceled := 0
	for _, ev := range evs[:batch] {
		if ev.Job.Error != "" {
			canceled++
		}
	}
	if canceled == 0 {
		t.Fatal("no canceled settlements reached the stream")
	}
}

func TestTenantQuotaMaxActive(t *testing.T) {
	c := testCluster(t, 1, 1, 16)
	st := newTestStore(t, c, Config{TenantMaxActive: 1})
	const n, k, m = 80, 2, 60
	s, _, ys := testBatch(t, c, n, k, m, 2, 23)

	release := make(chan struct{})
	first, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: "lab-a", Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	// lab-a is at quota; lab-b and the default tenant are not.
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: "lab-a"}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("same-tenant create: err = %v, want ErrTenantQuota", err)
	}
	other, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: "lab-b"})
	if err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k}); err != nil {
		t.Fatalf("default tenant rejected: %v", err)
	}

	gauges := st.Tenants()
	if g := gauges["lab-a"]; g.Active != 1 {
		t.Fatalf("lab-a gauges = %+v", g)
	}
	if g := gauges["lab-b"]; g.Active != 1 {
		t.Fatalf("lab-b gauges = %+v", g)
	}
	if _, ok := gauges[DefaultTenant]; !ok {
		t.Fatalf("no default-tenant gauges: %+v", gauges)
	}

	close(release)
	first.Wait(context.Background(), 10*time.Second)
	other.Wait(context.Background(), 10*time.Second)
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: "lab-a"}); err != nil {
		t.Fatalf("create after quota freed: %v", err)
	}
}

func TestTenantQuotaMaxQueued(t *testing.T) {
	c := testCluster(t, 1, 1, 16)
	st := newTestStore(t, c, Config{TenantMaxQueued: 3})
	const n, k, m = 80, 2, 60
	s, _, ys2 := testBatch(t, c, n, k, m, 2, 29)

	// A batch bigger than the whole quota can never be admitted: that is
	// a validation failure (pooledd: non-retryable 400), not a quota
	// rejection the client should wait out.
	big := [][]int64{ys2[0], ys2[0], ys2[0], ys2[0]}
	if _, err := st.Create(Request{Scheme: s, Batch: big, K: k, Tenant: "lab-a"}); err == nil || errors.Is(err, ErrTenantQuota) {
		t.Fatalf("oversized batch: err = %v, want a plain validation error", err)
	}

	// Two jobs held unsettled leave no room for two more.
	release := make(chan struct{})
	cp, err := st.Create(Request{Scheme: s, Batch: ys2, K: k, Tenant: "lab-a", Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(Request{Scheme: s, Batch: ys2, K: k, Tenant: "lab-a"}); !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota create: err = %v, want ErrTenantQuota", err)
	}
	// Another tenant's queue is unaffected.
	if _, err := st.Create(Request{Scheme: s, Batch: ys2, K: k, Tenant: "lab-b"}); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}

	close(release)
	cp.Wait(context.Background(), 10*time.Second)
	waitUnsettled := func() {
		deadline := time.Now().Add(5 * time.Second)
		for st.Tenants()["lab-a"].UnsettledJobs > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	waitUnsettled()
	if _, err := st.Create(Request{Scheme: s, Batch: ys2, K: k, Tenant: "lab-a"}); err != nil {
		t.Fatalf("create after jobs settled: %v", err)
	}
}

// TestTenantRoundRobinDispatchOrder observes the dispatcher's pop order
// directly (no dispatcher goroutine): tenants take turns job-for-job
// regardless of submission order, instead of the old FIFO where the
// first tenant's whole batch went ahead of everyone else's first job.
func TestTenantRoundRobinDispatchOrder(t *testing.T) {
	c := testCluster(t, 1, 1, 16)
	st := newStore(c, Config{}) // dispatcher not started
	const n, k, m = 80, 2, 60
	s, _, ys := testBatch(t, c, n, k, m, 3, 31)

	for _, tenant := range []string{"lab-a", "lab-b"} {
		if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: tenant}); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.busyQueues(); got != 2 {
		t.Fatalf("busy queues = %d, want 2 (one per tenant)", got)
	}
	want := []string{"lab-a", "lab-b", "lab-a", "lab-b", "lab-a", "lab-b"}
	for i, tenant := range want {
		pj, ok := st.nextPending()
		if !ok {
			t.Fatalf("pop %d: no pending job", i)
		}
		if pj.cp.Tenant() != tenant {
			t.Fatalf("pop %d from tenant %q, want %q", i, pj.cp.Tenant(), tenant)
		}
	}
	if _, ok := st.nextPending(); ok {
		t.Fatal("extra pending job after both batches drained")
	}
	if got := st.busyQueues(); got != 0 {
		t.Fatalf("busy queues after drain = %d, want 0", got)
	}

	// A requeued head (saturated shard) goes back in front of its
	// tenant's queue, not to the back.
	a, _ := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: "lab-a"})
	_ = a
	pj, _ := st.nextPending()
	first := pj.job.Tag
	st.requeueFront(pj)
	pj2, _ := st.nextPending()
	if pj2.job.Tag != first {
		t.Fatalf("requeued job lost its place: got tag %d, want %d", pj2.job.Tag, first)
	}
}

// TestTenantQueuePushFrontAfterPurge: a purge can rebuild the queue
// (resetting its head index) while the head job is out for a saturated
// dispatch attempt; pushFront must still restore that job ahead of the
// survivors, preserving per-tenant FIFO order.
func TestTenantQueuePushFrontAfterPurge(t *testing.T) {
	q := &fifo{}
	for _, tag := range []int{1, 2, 3} {
		q.push(pendingJob{job: engine.Job{Tag: tag}})
	}
	head := q.pop()
	// Concurrent cancel purged job 3 and rebuilt the queue.
	q.replace([]pendingJob{{job: engine.Job{Tag: 2}}})
	q.pushFront(head)
	if got := []int{q.pop().job.Tag, q.pop().job.Tag}; got[0] != 1 || got[1] != 2 {
		t.Fatalf("pop order after purge+requeue = %v, want [1 2]", got)
	}
	if q.len() != 0 {
		t.Fatalf("queue not drained: %d left", q.len())
	}
}

// TestSaturatedShardDoesNotStallOthers: campaign A targets a wedged
// shard while campaign B — submitted by the SAME tenant — targets a
// flowing one. The per-shard queues inside a tenant (and the
// full-rotation backoff rule) must keep B draining at full speed
// instead of parking behind A's saturated head.
func TestSaturatedShardDoesNotStallOthers(t *testing.T) {
	c := testCluster(t, 4, 1, 1) // queue depth 1: trivially saturated
	st := newTestStore(t, c, Config{})
	const n, k, m = 80, 2, 60

	// Two schemes on different shards.
	sA, _, ysA := testBatch(t, c, n, k, m, 4, 0)
	var sB *engine.Scheme
	var ysB [][]int64
	for seed := uint64(1); seed < 64; seed++ {
		s2, _, ys2 := testBatch(t, c, n, k, m, 16, seed)
		if s2.Home() != sA.Home() {
			sB, ysB = s2, ys2
			break
		}
	}
	if sB == nil {
		t.Fatal("no second shard found")
	}

	// Wedge shard A's only worker; its queue is empty at admission time
	// (Create's saturation check passes) but fills as soon as the
	// dispatcher lands A's first job, so A's second job hits saturation
	// at dispatch time.
	release := make(chan struct{})
	defer close(release)
	shardA := c.Owner(sA)
	if _, err := shardA.Submit(context.Background(), engine.Job{Scheme: sA, Y: ysA[0], K: k, Dec: stallDecoder{release}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for shardA.QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	cpA, err := st.Create(Request{Scheme: sA, Batch: ysA, K: k, Tenant: "lab", Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	cpB, err := st.Create(Request{Scheme: sB, Batch: ysB, K: k, Tenant: "lab"})
	if err != nil {
		t.Fatal(err)
	}
	// B's 16 jobs drain through its idle shard promptly even though A's
	// head job is stuck behind the wedge the whole time.
	if p := cpB.Wait(context.Background(), 10*time.Second); p.State != Done || p.Completed != 16 {
		t.Fatalf("flowing campaign stalled behind its tenant's saturated shard: %+v", p)
	}
	if got := cpA.Progress().Settled(); got != 0 {
		t.Fatalf("wedged campaign settled %d jobs", got)
	}
	cpA.Cancel()
}

// TestCampaignGCWakesParkedWaiter is the waiter-leak regression test: a
// canceled campaign whose in-flight job never settles (wedged decoder)
// used to be unreapable, and any reaping would have left long-pollers
// parked for their full timeout. GC now expires the campaign — parked
// Wait calls return a terminal progress immediately and event streams
// receive their closing event.
func TestCampaignGCWakesParkedWaiter(t *testing.T) {
	c := testCluster(t, 1, 1, 4)
	// TenantMaxQueued == batch: the wedged campaign holds the tenant's
	// entire queue quota until GC reaps it.
	st := newTestStore(t, c, Config{Retention: time.Minute, TenantMaxQueued: 2})
	const n, k, m, batch = 80, 2, 60, 2
	s, _, ys := testBatch(t, c, n, k, m, batch, 37)

	release := make(chan struct{})
	defer close(release) // let the wedged decode finish at teardown
	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for c.Shard(0).Stats().JobsSubmitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cp.Cancel()

	// Park a long-poller and a streamer on the wedged campaign.
	waited := make(chan Progress, 1)
	go func() { waited <- cp.Wait(context.Background(), 30*time.Second) }()
	type streamOut struct {
		evs []Event
		err error
	}
	streamed := make(chan streamOut, 1)
	go func() {
		evs, err := collectEvents(cp, 30*time.Second)
		streamed <- streamOut{evs, err}
	}()
	time.Sleep(10 * time.Millisecond) // let both park

	// Retention has elapsed for the canceled campaign: GC reaps it and
	// must wake the waiters with a terminal state first.
	if got := st.GC(time.Now().Add(2 * time.Minute)); got != 1 {
		t.Fatalf("GC collected %d campaigns, want 1", got)
	}
	select {
	case p := <-waited:
		if !p.Terminal() || p.State != Expired {
			t.Fatalf("woken waiter got %+v, want terminal expired", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("long-poller still parked after GC dropped its campaign")
	}
	select {
	case out := <-streamed:
		if out.err != nil {
			t.Fatal(out.err)
		}
		last := out.evs[len(out.evs)-1]
		if !last.Terminal() || last.State != Expired {
			t.Fatalf("stream ended with %+v, want terminal expired", last)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("streamer still parked after GC dropped its campaign")
	}
	if _, ok := st.Get(cp.ID()); ok {
		t.Fatal("expired campaign still retained")
	}
	// The reap returned the wedged jobs' quota: the tenant can submit
	// again even though those jobs never settled.
	if g := st.Tenants()[DefaultTenant]; g.UnsettledJobs != 0 {
		t.Fatalf("reap leaked tenant quota: %+v", g)
	}
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k}); err != nil {
		t.Fatalf("create after reap freed the quota: %v", err)
	}
}

// firstK answers every job at once with entries 0..k-1: a weight-k
// support without a decode.
type firstK struct{}

func (firstK) Name() string { return "first-k" }

func (firstK) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	v := bitvec.New(g.N())
	for i := 0; i < k; i++ {
		v.Set(i)
	}
	return v, nil
}

// gateDecoder runs MN once per value received from gate (every job at
// once after gate closes).
type gateDecoder struct{ gate <-chan struct{} }

func (gateDecoder) Name() string { return "gate" }

func (d gateDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	<-d.gate
	return decoder.MN{}.Decode(g, y, k)
}

// TestFinishedCampaignFootprint guards what a finished campaign keeps:
// one JobResult per job, with its support, and no second copy of it for
// the event log. Over 50 finished 64-job campaigns at the home scale
// (n = 10⁴, m = 600, k = 16), the heap that reaping them frees is at
// most 1.1 × (a JobResult and a k-entry support) per job, plus a fixed
// allowance per campaign for its struct, channel, context and map entry.
func TestFinishedCampaignFootprint(t *testing.T) {
	const n, m, k, batch, campaigns = 10000, 600, 16, 64, 50
	c := testCluster(t, 1, 2, 0)
	st := newTestStore(t, c, Config{})
	s, err := c.Scheme(nil, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	ys := make([][]int64, batch)
	for i := range ys {
		ys[i] = make([]int64, m)
	}
	for i := 0; i < campaigns; i++ {
		cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: firstK{}})
		if err != nil {
			t.Fatal(err)
		}
		if p := waitDone(t, cp); p.Completed != batch {
			t.Fatalf("campaign %s: %+v", cp.ID(), p)
		}
	}
	// Two collections also empty the sync.Pool victim caches.
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	withCampaigns := heap()
	if got := st.GC(time.Now().Add(time.Hour)); got != campaigns {
		t.Fatalf("GC reaped %d campaigns, want %d", got, campaigns)
	}
	retained := withCampaigns - heap()
	perJob := 1.1 * float64(unsafe.Sizeof(JobResult{})+8*k)
	const perCampaign = 2048
	limit := int64(campaigns * (batch*perJob + perCampaign))
	t.Logf("%d finished %d-job campaigns retained %d bytes, %d per job; limit %d", campaigns, batch, retained, retained/(campaigns*batch), limit)
	if retained > limit {
		t.Fatalf("%d finished %d-job campaigns retained %d bytes (%d per job), limit %d", campaigns, batch, retained, retained/(campaigns*batch), limit)
	}
}

// TestStragglerAfterExpiry: a job that settles after GC expired its
// campaign counts in Progress, but not in the stream, which stays
// sealed at the expired terminal event.
func TestStragglerAfterExpiry(t *testing.T) {
	c := testCluster(t, 1, 2, 0)
	st := newTestStore(t, c, Config{Retention: time.Minute})
	const n, k, m, batch = 80, 2, 60, 3
	s, _, ys := testBatch(t, c, n, k, m, batch, 53)

	release := make(chan struct{})
	defer close(release)
	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: wedgeDecoder{&ys[1][0], release}})
	if err != nil {
		t.Fatal(err)
	}
	waitSettled(t, cp, batch-1)
	cp.Cancel()
	if got := st.GC(time.Now().Add(2 * time.Minute)); got != 1 {
		t.Fatalf("GC collected %d campaigns, want 1", got)
	}
	sealedAt := cp.Events()
	if sealedAt != batch {
		t.Fatalf("expired log has %d events, want %d results + done", sealedAt, batch-1)
	}

	release <- struct{}{} // the wedged job settles after the seal
	p := waitSettled(t, cp, batch)
	if p.State != Expired || p.Completed != batch {
		t.Fatalf("progress after the straggler: %+v", p)
	}
	if got := cp.Events(); got != sealedAt {
		t.Fatalf("the straggler moved the log from %d to %d events", sealedAt, got)
	}
	evs, _, sealed := cp.EventsSince(0)
	if !sealed || int64(len(evs)) != sealedAt {
		t.Fatalf("EventsSince(0): sealed=%v, %d events, want %d", sealed, len(evs), sealedAt)
	}
	for i, ev := range evs[:batch-1] {
		if ev.Seq != int64(i+1) || ev.Type != EventResult || ev.Job.Index == 1 {
			t.Fatalf("event %d = %+v, want a result of a job settled before the seal", i, ev)
		}
	}
	if last := evs[batch-1]; !last.Terminal() || last.State != Expired || last.Seq != sealedAt || last.Completed != batch-1 {
		t.Fatalf("stream ends with %+v, want the expired done event", last)
	}
}

// TestEventJobIsStable: the Job of an event returned by EventsSince
// keeps its contents while later jobs settle into the same log.
func TestEventJobIsStable(t *testing.T) {
	c := testCluster(t, 1, 1, 0)
	st := newTestStore(t, c, Config{})
	const n, k, m, batch = 300, 5, 240, 8
	s, signals, ys := testBatch(t, c, n, k, m, batch, 59)

	gate := make(chan struct{})
	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: gateDecoder{gate}})
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // exactly one decode
	p := waitSettled(t, cp, 1)
	evs, _, _ := cp.EventsSince(0)
	if len(evs) != 1 || evs[0].Job == nil {
		t.Fatalf("after one settle: %+v (progress %+v)", evs, p)
	}
	first := evs[0].Job
	want := *first
	want.Support = append([]int(nil), first.Support...)
	if !bitvec.FromIndices(n, want.Support).Equal(signals[want.Index]) {
		t.Fatalf("job %d did not recover its signal", want.Index)
	}

	close(gate)
	waitDone(t, cp)
	if !reflect.DeepEqual(*first, want) {
		t.Fatalf("event job changed after later settles: %+v, was %+v", *first, want)
	}
	evs, _, _ = cp.EventsSince(0)
	if len(evs) != batch+1 || !reflect.DeepEqual(*evs[0].Job, want) {
		t.Fatalf("replayed first event = %+v, want job %+v", evs[0], want)
	}
}

// waitSettled polls until at least settled of the campaign's jobs have
// settled.
func waitSettled(t testing.TB, cp *Campaign, settled int) Progress {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := cp.Progress()
		if p.Settled() >= settled {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d jobs settled, want %d", p.Settled(), p.Total, settled)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCampaignStreamHammer is the -race pass: concurrent campaigns
// across tenants, two streamers per campaign, GC and gauge polling, all
// racing the settle fan-out.
func TestCampaignStreamHammer(t *testing.T) {
	c := testCluster(t, 2, 2, 16)
	st := newTestStore(t, c, Config{MaxActive: 64})
	const n, k, m, batch = 200, 4, 160, 5
	const campaigns, streamers = 9, 2
	s, _, ys := testBatch(t, c, n, k, m, batch, 41)

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				st.GC(time.Now())
				st.Tenants()
				st.List()
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, campaigns*(streamers+1))
	for i := 0; i < campaigns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("lab-%d", i%3)
			cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: tenant})
			if err != nil {
				errs <- err
				return
			}
			var sub sync.WaitGroup
			for sIdx := 0; sIdx < streamers; sIdx++ {
				sub.Add(1)
				go func() {
					defer sub.Done()
					evs, err := collectEvents(cp, 30*time.Second)
					if err != nil {
						errs <- fmt.Errorf("campaign %s stream: %v", cp.ID(), err)
						return
					}
					if len(evs) != batch+1 {
						errs <- fmt.Errorf("campaign %s stream: %d events", cp.ID(), len(evs))
					}
				}()
			}
			p := cp.Wait(context.Background(), 30*time.Second)
			if p.State != Done || p.Completed != batch {
				errs <- fmt.Errorf("campaign %s: %+v", cp.ID(), p)
			}
			sub.Wait()
		}(i)
	}
	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkCampaignStreaming fans B settled jobs out to S concurrent
// subscribers per campaign — the perf trajectory of the streaming
// subsystem (events/op on the reported metric).
func BenchmarkCampaignStreaming(b *testing.B) {
	c := engine.NewCluster(engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 2, QueueDepth: 128},
	})
	defer c.Close()
	st := NewStore(c, Config{MaxActive: 4})
	defer st.Close()
	const n, k, m, B, S = 200, 4, 160, 64, 8
	s, _, ys := testBatch(b, c, n, k, m, B, 43)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Tenant: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		var wg sync.WaitGroup
		for sIdx := 0; sIdx < S; sIdx++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				evs, err := collectEvents(cp, 60*time.Second)
				if err != nil {
					b.Error(err)
					return
				}
				if len(evs) != B+1 {
					b.Errorf("stream saw %d events, want %d", len(evs), B+1)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	b.ReportMetric(float64((B+1)*S), "events/op")
}
