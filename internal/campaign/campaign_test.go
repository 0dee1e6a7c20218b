package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
	"pooleddata/internal/threshgt"
)

func testCluster(t testing.TB, shards, workers, queue int) *engine.Cluster {
	t.Helper()
	c := engine.NewCluster(engine.ClusterConfig{
		Shards: shards,
		Shard:  engine.Config{CacheCapacity: 4, Workers: workers, QueueDepth: queue},
	})
	t.Cleanup(c.Close)
	return c
}

// testBatch builds a scheme plus a measured batch with known signals.
func testBatch(t testing.TB, c *engine.Cluster, n, k, m, batch int, seed uint64) (*engine.Scheme, []*bitvec.Vector, [][]int64) {
	t.Helper()
	s, err := c.Scheme(nil, n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([]*bitvec.Vector, batch)
	ys := make([][]int64, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(seed+uint64(100+b)))
		ys[b] = query.Execute(s.G, signals[b], query.Options{}).Y
	}
	return s, signals, ys
}

func TestCampaignLifecycle(t *testing.T) {
	c := testCluster(t, 2, 2, 0)
	st := NewStore(c, Config{})
	const n, k, m, batch = 300, 5, 240, 8
	s, signals, ys := testBatch(t, c, n, k, m, batch, 3)

	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Total() != batch {
		t.Fatalf("total = %d, want %d", cp.Total(), batch)
	}

	// Progress is monotone across repeated polls until terminal.
	last := -1
	deadline := time.Now().Add(10 * time.Second)
	var p Progress
	for {
		p = cp.Wait(context.Background(), 10*time.Millisecond)
		if p.Settled() < last {
			t.Fatalf("progress went backwards: %d after %d", p.Settled(), last)
		}
		last = p.Settled()
		if p.Terminal() && p.Settled() == p.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign did not finish: %+v", p)
		}
	}
	if p.State != Done || p.Completed != batch || p.Failed != 0 || p.Canceled != 0 {
		t.Fatalf("final progress = %+v", p)
	}
	if len(p.Results) != batch {
		t.Fatalf("got %d results", len(p.Results))
	}
	for i, res := range p.Results {
		if res.Index != i {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
		if !res.Consistent || res.Error != "" {
			t.Fatalf("result %d: %+v", i, res)
		}
		if !bitvec.FromIndices(n, res.Support).Equal(signals[i]) {
			t.Fatalf("result %d did not recover its signal", i)
		}
	}

	// A late cancel on a finished campaign is a no-op: Done stays Done.
	cp.Cancel()
	if got := cp.Progress().State; got != Done {
		t.Fatalf("state after late cancel = %q, want done", got)
	}

	if got, ok := st.Get(cp.ID()); !ok || got != cp {
		t.Fatal("Get lost the campaign")
	}
	list := st.List()
	if len(list) != 1 || list[0].ID != cp.ID() {
		t.Fatalf("List = %+v", list)
	}
	if list[0].Results != nil {
		t.Fatal("List carried per-job results")
	}
	if a, f := st.Counts(); a != 0 || f != 1 {
		t.Fatalf("counts = (%d active, %d finished), want (0, 1)", a, f)
	}
}

// stallDecoder blocks until released, then returns the all-zero
// estimate (the estimate itself is irrelevant to these tests).
type stallDecoder struct{ release <-chan struct{} }

func (stallDecoder) Name() string { return "stall" }

func (d stallDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	<-d.release
	return bitvec.New(g.N()), nil
}

// wedgeDecoder stalls on the job whose counts start at wedge, until a
// value arrives on release, and answers every other job at once with
// the all-zero estimate.
type wedgeDecoder struct {
	wedge   *int64
	release <-chan struct{}
}

func (wedgeDecoder) Name() string { return "wedge" }

func (d wedgeDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if &y[0] == d.wedge {
		<-d.release
	}
	return bitvec.New(g.N()), nil
}

// TestSettledJobReleasesItsCounts: a running campaign keeps the count
// vectors of its unsettled jobs only. A finalizer on one job's counts
// runs once that job has settled, while another job of the same
// campaign is still wedged in a decoder.
func TestSettledJobReleasesItsCounts(t *testing.T) {
	c := testCluster(t, 1, 2, 0)
	st := newTestStore(t, c, Config{})
	const n, k, m = 80, 2, 60
	s, _, _ := testBatch(t, c, n, k, m, 0, 61)

	release := make(chan struct{})
	defer close(release)
	freed := make(chan struct{})
	wedged := make([]int64, m)
	// The finalized row is referenced only by the batch handed to Create.
	create := func() *Campaign {
		row := make([]int64, m)
		runtime.SetFinalizer(&row[0], func(*int64) { close(freed) })
		cp, err := st.Create(Request{Scheme: s, Batch: [][]int64{row, wedged}, K: k, Dec: wedgeDecoder{&wedged[0], release}})
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	cp := create()
	deadline := time.Now().Add(10 * time.Second)
	for cp.Progress().Settled() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for done := false; !done; {
		runtime.GC()
		select {
		case <-freed:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("the settled job's counts are still reachable while its campaign runs")
			}
		}
	}
	if p := cp.Progress(); p.Settled() != 1 || p.State != Running {
		t.Fatalf("progress = %+v, want one job settled and one wedged", p)
	}
	release <- struct{}{}
	waitDone(t, cp)
}

// TestListCopiesNoResults: a listing reads counters only, so neither
// its allocations nor its bytes grow with the jobs its campaigns hold.
func TestListCopiesNoResults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	list := func(batch int) (allocs float64, bytes uint64) {
		c := testCluster(t, 1, 2, 0)
		st := newTestStore(t, c, Config{})
		s, _, ys := testBatch(t, c, 80, 2, 60, batch, 67)
		for i := 0; i < 4; i++ {
			cp, err := st.Create(Request{Scheme: s, Batch: ys, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, cp)
		}
		const runs = 50
		allocs = testing.AllocsPerRun(runs, func() { st.List() })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			st.List()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
	}
	a8, b8 := list(8)
	a64, b64 := list(64)
	if a8 != a64 || b64 > b8+256 {
		t.Fatalf("List of four 8-job campaigns: %v allocs, %d bytes; of four 64-job campaigns: %v allocs, %d bytes", a8, b8, a64, b64)
	}
}

func TestCampaignCancel(t *testing.T) {
	c := testCluster(t, 1, 1, 4)
	st := NewStore(c, Config{})
	const n, k, m, batch = 80, 2, 60, 4
	s, _, ys := testBatch(t, c, n, k, m, batch, 7)

	release := make(chan struct{})
	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the single worker start the first job, then cancel: the worker
	// finishes its in-flight decode, the queued jobs settle as canceled.
	deadline := time.Now().Add(time.Second)
	for c.Shard(0).Stats().JobsSubmitted == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	cp.Cancel()
	close(release)

	p := cp.Wait(context.Background(), 5*time.Second)
	if p.State != Canceled {
		t.Fatalf("state = %q, want canceled", p.State)
	}
	if p.Settled() != batch {
		t.Fatalf("settled = %d, want %d", p.Settled(), batch)
	}
	if p.Canceled == 0 {
		t.Fatalf("no jobs settled as canceled: %+v", p)
	}
	// Cancel is idempotent.
	cp.Cancel()
	if a, f := st.Counts(); a != 0 || f != 1 {
		t.Fatalf("counts = (%d, %d), want (0, 1)", a, f)
	}
}

func TestCampaignAdmissionControl(t *testing.T) {
	c := testCluster(t, 1, 1, 1)
	st := NewStore(c, Config{MaxActive: 1})
	const n, k, m = 80, 2, 60
	s, _, ys := testBatch(t, c, n, k, m, 2, 9)

	// Wedge the worker and fill the queue directly.
	release := make(chan struct{})
	defer close(release)
	shard := c.Owner(s)
	if _, err := shard.Submit(context.Background(), engine.Job{Scheme: s, Y: ys[0], K: k, Dec: stallDecoder{release}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for shard.QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := shard.Submit(context.Background(), engine.Job{Scheme: s, Y: ys[0], K: k, Dec: stallDecoder{release}}); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k}); !errors.Is(err, engine.ErrSaturated) {
		t.Fatalf("create on saturated shard: err = %v, want ErrSaturated", err)
	}
	if got := shard.Stats().JobsRejected; got != 2 {
		t.Fatalf("jobs rejected = %d, want 2 (whole batch)", got)
	}
}

func TestCampaignMaxActive(t *testing.T) {
	c := testCluster(t, 1, 1, 8)
	st := NewStore(c, Config{MaxActive: 1})
	const n, k, m = 80, 2, 60
	s, _, ys := testBatch(t, c, n, k, m, 2, 11)

	release := make(chan struct{})
	first, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Dec: stallDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k}); !errors.Is(err, ErrTooManyCampaigns) {
		t.Fatalf("second active campaign: err = %v, want ErrTooManyCampaigns", err)
	}
	close(release)
	first.Wait(context.Background(), 5*time.Second)
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: k}); err != nil {
		t.Fatalf("create after first finished: %v", err)
	}
}

func TestCampaignValidation(t *testing.T) {
	c := testCluster(t, 1, 1, 0)
	st := NewStore(c, Config{})
	s, _, ys := testBatch(t, c, 80, 2, 60, 1, 13)
	if _, err := st.Create(Request{Batch: ys, K: 2}); err == nil {
		t.Fatal("nil scheme accepted")
	}
	if _, err := st.Create(Request{Scheme: s, K: 2}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := st.Create(Request{Scheme: s, Batch: [][]int64{{1, 2}}, K: 2}); err == nil {
		t.Fatal("short count vector accepted")
	}
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: -1}); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := st.Create(Request{Scheme: s, Batch: ys, K: 81}); err == nil {
		t.Fatal("out-of-range k accepted")
	}
}

func TestCampaignGC(t *testing.T) {
	c := testCluster(t, 1, 1, 0)
	st := NewStore(c, Config{Retention: time.Nanosecond})
	const n, k, m = 80, 2, 60
	s, _, ys := testBatch(t, c, n, k, m, 2, 15)

	cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k})
	if err != nil {
		t.Fatal(err)
	}
	cp.Wait(context.Background(), 5*time.Second)
	if got := st.GC(time.Now().Add(time.Second)); got != 1 {
		t.Fatalf("GC collected %d campaigns, want 1", got)
	}
	if _, ok := st.Get(cp.ID()); ok {
		t.Fatal("finished campaign survived GC past retention")
	}

	// MaxFinished bounds retained campaigns regardless of age.
	st2 := NewStore(c, Config{MaxFinished: 1, Retention: time.Hour})
	var ids []string
	for i := 0; i < 3; i++ {
		cp, err := st2.Create(Request{Scheme: s, Batch: ys, K: k})
		if err != nil {
			t.Fatal(err)
		}
		cp.Wait(context.Background(), 5*time.Second)
		ids = append(ids, cp.ID())
	}
	st2.GC(time.Now())
	live := 0
	for _, id := range ids {
		if _, ok := st2.Get(id); ok {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d finished campaigns retained, want 1", live)
	}
}

// thresholdBatch builds a threshold-T scheme on the cluster plus a
// binarized measured batch through the noise model's batched path.
func thresholdBatch(t testing.TB, c *engine.Cluster, n, k, T, m, batch int, seed uint64) (*engine.Scheme, []*bitvec.Vector, [][]int64, noise.Model) {
	t.Helper()
	des := pooling.RandomRegular{Gamma: threshgt.RecommendedGamma(n, k, T)}
	s, err := c.Scheme(des, n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	nm := noise.Model{Kind: noise.Threshold, T: int64(T)}
	signals := make([]*bitvec.Vector, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(seed+uint64(500+b)))
	}
	return s, signals, c.MeasureBatch(s, signals, nm), nm
}

// TestCampaignThresholdNoiseAcrossShards runs threshold-T campaigns on
// a multi-shard cluster: the campaign-level noise model must survive the
// FNV routing to each scheme's owning shard and the OnDone callback
// fan-out, select the threshold-GT decoder server-side, and come back in
// the campaign's progress and the shard's per-model counters.
func TestCampaignThresholdNoiseAcrossShards(t *testing.T) {
	const shards = 4
	c := testCluster(t, shards, 1, 0)
	st := NewStore(c, Config{})
	n, k, T, m, batch := 400, 8, 2, 500, 4

	// Two campaigns whose schemes live on different shards.
	des := pooling.RandomRegular{Gamma: threshgt.RecommendedGamma(n, k, T)}
	var seeds []uint64
	homes := map[int]bool{}
	for seed := uint64(0); len(seeds) < 2 && seed < 64; seed++ {
		h := c.ShardOf(engine.SpecFor(des, n, m, seed))
		if !homes[h] {
			homes[h] = true
			seeds = append(seeds, seed)
		}
	}
	if len(seeds) < 2 {
		t.Fatal("could not find specs on two shards")
	}

	for _, seed := range seeds {
		s, signals, ys, nm := thresholdBatch(t, c, n, k, T, m, batch, seed)
		cp, err := st.Create(Request{Scheme: s, Batch: ys, K: k, Noise: nm})
		if err != nil {
			t.Fatal(err)
		}
		p := cp.Wait(context.Background(), 10*time.Second)
		if p.State != Done || p.Completed != batch {
			t.Fatalf("campaign on shard %d: %+v", s.Home(), p)
		}
		if p.Noise == nil || p.Noise.Canon() != nm.Canon() {
			t.Fatalf("progress lost the noise model: %+v", p.Noise)
		}
		for i, res := range p.Results {
			if res.Decoder != (threshgt.Scored{}).Name() {
				t.Fatalf("job %d decoder %q, want threshold-GT", i, res.Decoder)
			}
			if ov := bitvec.OverlapFraction(signals[i], bitvec.FromIndices(n, res.Support)); ov < 0.7 {
				t.Fatalf("job %d overlap %.2f under threshold noise", i, ov)
			}
		}
		if got := c.Shard(s.Home()).Stats().JobsByNoise[nm.Key()]; got < uint64(batch) {
			t.Fatalf("shard %d JobsByNoise[%q] = %d, want ≥ %d", s.Home(), nm.Key(), got, batch)
		}
	}
	if got := c.Stats().Total.JobsByNoise[(noise.Model{Kind: noise.Threshold, T: int64(T)}).Key()]; got != uint64(2*batch) {
		t.Fatalf("aggregate per-model jobs = %d, want %d", got, 2*batch)
	}
}

// TestCampaignNoiseHammer is the -race variant: many concurrent
// threshold-noise campaigns across shards, all settling through the
// OnDone fan-out while stats are polled concurrently.
func TestCampaignNoiseHammer(t *testing.T) {
	const shards = 4
	c := testCluster(t, shards, 2, 8)
	st := NewStore(c, Config{MaxActive: 64})
	n, k, T, m, batch := 200, 5, 2, 220, 3

	const campaigns = 12
	type prepared struct {
		s  *engine.Scheme
		ys [][]int64
		nm noise.Model
	}
	preps := make([]prepared, campaigns)
	for i := range preps {
		s, _, ys, nm := thresholdBatch(t, c, n, k, T, m, batch, uint64(i))
		preps[i] = prepared{s, ys, nm}
	}

	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				c.Stats() // races against settle paths under -race
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make([]error, campaigns)
	deadline := time.Now().Add(20 * time.Second)
	for i := range preps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Create refuses a campaign while its shard's queue is full
			// (the documented 429); retry as a client would, within the
			// deadline.
			req := Request{Scheme: preps[i].s, Batch: preps[i].ys, K: k, Noise: preps[i].nm}
			cp, err := st.Create(req)
			for errors.Is(err, engine.ErrSaturated) && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
				cp, err = st.Create(req)
			}
			if err != nil {
				errs[i] = err
				return
			}
			p := cp.Wait(context.Background(), 20*time.Second)
			if p.State != Done || p.Completed != batch {
				errs[i] = fmt.Errorf("campaign %s: %+v", cp.ID(), p)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %d: %v", i, err)
		}
	}
	key := (noise.Model{Kind: noise.Threshold, T: int64(T)}).Key()
	if got := c.Stats().Total.JobsByNoise[key]; got != uint64(campaigns*batch) {
		t.Fatalf("aggregate JobsByNoise[%q] = %d, want %d", key, got, campaigns*batch)
	}
}
