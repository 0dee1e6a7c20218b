package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/remote"
)

// Elastic-fleet end-to-end coverage: runtime worker registration and
// drain over the HTTP membership API, probe-driven eviction with
// auto-rejoin, and membership churn racing live campaigns.

// startElasticFrontend boots a frontend with a fleet manager over the
// given workers — the in-process form of `pooledd -workers ...` with
// the /v1/workers endpoints live. Probe and retry knobs are tightened
// so eviction and rejoin land within test timeouts.
func startElasticFrontend(t testing.TB, workers ...*httptest.Server) (*httptest.Server, *server, *fleet) {
	t.Helper()
	addrs := make([]string, len(workers))
	for i, w := range workers {
		addrs[i] = w.Listener.Addr().String()
	}
	f, cluster := newFleet(addrs, fleetConfig{
		probeInterval: 20 * time.Millisecond,
		retryBackoff:  5 * time.Millisecond,
		retries:       1,
	})
	t.Cleanup(f.Close)
	srv := newServer(cluster, campaign.Config{})
	srv.fleet = f
	t.Cleanup(srv.campaigns.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv, f
}

func deleteWorker(t testing.TB, url, addr string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/workers/"+addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// seedOwnedByID searches for a default-design seed whose spec key the
// ring assigns to the member with the given id.
func seedOwnedByID(c *engine.Cluster, n, m int, id string) uint64 {
	for seed := uint64(1); ; seed++ {
		if c.OwnerID(engine.SpecFor(pooling.RandomRegular{}, n, m, seed).Key()) == id {
			return seed
		}
	}
}

// TestElasticAddWorkerMidCampaign registers a second worker while a
// campaign is in flight: the campaign completes with zero failures,
// the new member appears in /v1/workers and /v1/stats, and schemes
// keyed to its arcs are decoded by it.
func TestElasticAddWorkerMidCampaign(t *testing.T) {
	const n, m, k, batch = 400, 240, 5, 48
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.0, Seed: 3}
	_, w0 := startWorker(t)
	w1Cluster, w1 := startWorker(t)
	fed, srv, _ := startElasticFrontend(t, w0)
	w1Addr := w1.Listener.Addr().String()

	// Campaign in flight on the single-worker fleet.
	seed := seedOwnedByID(srv.cluster, n, m, srv.cluster.MemberIDs()[0])
	ys := noisyBatch(t, n, m, k, batch, seed, nm)
	var sch schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch)
	var created campaignCreated
	if resp := postJSON(t, fed.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys, Noise: &nm}, &created); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}

	// Register the second worker mid-flight.
	var joined struct {
		Members []string `json:"members"`
	}
	if resp := postJSON(t, fed.URL+"/v1/workers", workerRequest{Addr: w1Addr}, &joined); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register worker: status %d", resp.StatusCode)
	}
	if len(joined.Members) != 2 {
		t.Fatalf("members after join = %v, want 2", joined.Members)
	}
	if resp := postJSON(t, fed.URL+"/v1/workers", workerRequest{Addr: w1Addr}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d, want 409", resp.StatusCode)
	}

	// The in-flight campaign finishes losing nothing across the ring
	// change (its scheme may or may not have migrated to the new member
	// — either way every job must settle cleanly).
	deadline := time.Now().Add(60 * time.Second)
	var p campaign.Progress
	for {
		getJSON(t, fed.URL+"/v1/campaigns/"+created.ID+"?wait=2s", &p)
		if p.Terminal() && p.Settled() == p.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign wedged across worker join: %+v", p)
		}
	}
	if p.Completed != batch || p.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", p.Completed, p.Failed, batch)
	}

	// New load lands on the new member: a scheme keyed to its arcs is
	// decoded by its engine.
	seed1 := seedOwnedByID(srv.cluster, n, m, w1Addr)
	ys1 := noisyBatch(t, n, m, k, 8, seed1, nm)
	var sch1 schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed1}, &sch1)
	if sch1.Owner != w1Addr {
		t.Fatalf("scheme owner = %q, want %q", sch1.Owner, w1Addr)
	}
	if p := runCampaignHTTP(t, fed.URL, campaignRequest{Scheme: sch1.ID, K: k, Batch: ys1, Noise: &nm}); p.Completed != 8 {
		t.Fatalf("campaign on new worker: %+v", p)
	}
	if c := w1Cluster.Stats().Total.JobsCompleted; c < 8 {
		t.Fatalf("new worker completed %d jobs, want >= 8", c)
	}

	// Membership shows up in /v1/workers and /v1/stats.
	var wl struct {
		Workers []workerStatus `json:"workers"`
	}
	getJSON(t, fed.URL+"/v1/workers", &wl)
	if len(wl.Workers) != 2 {
		t.Fatalf("worker list = %+v, want 2 entries", wl.Workers)
	}
	var stats struct {
		Members        []string `json:"members"`
		MembershipAdds uint64   `json:"membership_adds"`
	}
	getJSON(t, fed.URL+"/v1/stats", &stats)
	if len(stats.Members) != 2 || stats.MembershipAdds != 1 {
		t.Fatalf("stats members=%v adds=%d, want 2 members / 1 runtime join", stats.Members, stats.MembershipAdds)
	}
}

// TestElasticDrainWorkerMidCampaign drains a worker over the HTTP API
// while its jobs are in flight: the queue flushes, orphans re-dispatch
// through the ring, and the campaign completes with zero failures and
// baseline-identical supports.
func TestElasticDrainWorkerMidCampaign(t *testing.T) {
	const n, m, k, batch = 400, 240, 5, 64
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.0, Seed: 7}
	_, w0 := startWorker(t)
	_, w1 := startWorker(t)
	fed, srv, _ := startElasticFrontend(t, w0, w1)
	w1Addr := w1.Listener.Addr().String()

	local, _, _ := newTestServerWith(t, engine.ClusterConfig{
		Shards: 2, Shard: engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})

	// A campaign whose scheme lives on the worker we will drain.
	seed := seedOwnedByID(srv.cluster, n, m, w1Addr)
	ys := noisyBatch(t, n, m, k, batch, seed, nm)
	runScheme := func(url string) campaign.Progress {
		var sch schemeEntry
		postJSON(t, url+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch)
		return runCampaignHTTP(t, url, campaignRequest{Scheme: sch.ID, K: k, Batch: ys, Noise: &nm})
	}
	want := runScheme(local.URL)

	var sch schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch)
	var created campaignCreated
	if resp := postJSON(t, fed.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys, Noise: &nm}, &created); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}
	if resp := deleteWorker(t, fed.URL, w1Addr); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain worker: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	var p campaign.Progress
	for {
		getJSON(t, fed.URL+"/v1/campaigns/"+created.ID+"?wait=2s", &p)
		if p.Terminal() && p.Settled() == p.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign wedged across drain: %+v", p)
		}
	}
	if p.Failed != 0 || p.Completed != batch {
		t.Fatalf("drain lost jobs: completed=%d failed=%d, want %d/0", p.Completed, p.Failed, batch)
	}
	if !reflect.DeepEqual(supportsByIndex(p), supportsByIndex(want)) {
		t.Fatal("supports diverged from baseline after mid-campaign drain")
	}

	// The drained worker is gone from membership; draining the last one
	// is refused; draining an unknown address 404s.
	var stats struct {
		Members           []string `json:"members"`
		MembershipRemoves uint64   `json:"membership_removes"`
	}
	getJSON(t, fed.URL+"/v1/stats", &stats)
	if len(stats.Members) != 1 || stats.MembershipRemoves != 1 {
		t.Fatalf("stats members=%v removes=%d, want 1/1", stats.Members, stats.MembershipRemoves)
	}
	if resp := deleteWorker(t, fed.URL, w0.Listener.Addr().String()); resp.StatusCode != http.StatusConflict {
		t.Fatalf("drain last worker: status %d, want 409", resp.StatusCode)
	}
	if resp := deleteWorker(t, fed.URL, "nope:1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown worker: status %d, want 404", resp.StatusCode)
	}
}

// TestElasticEvictionAndRejoin kills a worker's listener: after
// EvictAfter failed probes the fleet pulls it from the ring (still
// listed as a non-member in /v1/workers), and when the listener comes
// back on the same address the probe re-admits it.
func TestElasticEvictionAndRejoin(t *testing.T) {
	_, w0 := startWorker(t)
	w1Engine, w1 := startWorker(t)
	w1Addr := w1.Listener.Addr().String()
	fed, srv, _ := startElasticFrontend(t, w0, w1)

	if len(srv.cluster.MemberIDs()) != 2 {
		t.Fatalf("boot members = %v", srv.cluster.MemberIDs())
	}

	// Kill the listener; the probe evicts the worker from the ring.
	w1.Close()
	deadline := time.Now().Add(10 * time.Second)
	for srv.cluster.HasMember(w1Addr) {
		if time.Now().After(deadline) {
			t.Fatal("worker never evicted after listener death")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var wl struct {
		Workers []workerStatus `json:"workers"`
	}
	getJSON(t, fed.URL+"/v1/workers", &wl)
	evicted := false
	for _, ws := range wl.Workers {
		if ws.Addr == w1Addr && !ws.Member {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("evicted worker not listed as non-member: %+v", wl.Workers)
	}

	// Resurrect the worker on the same address; the probe re-admits it.
	ln, err := reListen(w1Addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", w1Addr, err)
	}
	revived := &http.Server{Handler: remoteHandlerFor(t, w1Engine)}
	go revived.Serve(ln)
	t.Cleanup(func() { revived.Close() })

	for !srv.cluster.HasMember(w1Addr) {
		if time.Now().After(deadline) {
			t.Fatal("worker never rejoined after listener revival")
		}
		time.Sleep(5 * time.Millisecond)
	}
	adds, removes := srv.cluster.MembershipChanges()
	if adds < 1 || removes < 1 {
		t.Fatalf("membership changes adds=%d removes=%d, want >=1 each (eviction + rejoin)", adds, removes)
	}
}

// TestDrainRacesEviction regression-tests the drain-vs-eviction
// deadlock: an administrative DELETE racing the probe-threshold
// transition of a dying worker must not wedge the membership lock.
// (Remove used to close the client — which waits out the probe
// goroutine — while holding f.mu, the same lock that goroutine's
// eviction hook was queued on.)
//
// The choreography that used to wedge: stillborn workers march toward
// eviction a few ms apart; the first eviction fires and lingers in its
// (deliberately slow) log line, after f.mu is released; the drains
// arrive while the later workers' eviction hooks are still queued on
// f.mu behind it. A drain that then wins the lock before its own
// worker's hook would close the client under f.mu and wait forever for
// the hook-blocked probe goroutine. Each round shifts the drain instant
// to sweep the window.
func TestDrainRacesEviction(t *testing.T) {
	_, w0 := startWorker(t)
	// The slow eviction log stretches each eviction so the drains below
	// reliably overlap the queued probe-threshold transitions.
	f, _ := newFleet([]string{w0.Listener.Addr().String()}, fleetConfig{
		probeInterval: 20 * time.Millisecond,
		retryBackoff:  5 * time.Millisecond,
		retries:       1,
		log:           slog.New(slowEvictLog{slog.NewTextHandler(io.Discard, nil)}),
	})
	t.Cleanup(f.Close)

	for round := 0; round < 3; round++ {
		// Eviction lands EvictAfter(3) probes after Add — ~40ms at the
		// 20ms test probe interval — so staggering the Adds staggers the
		// hooks across the drain burst.
		start := time.Now()
		var addrs []string
		for i := 0; i < 5; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			if err := f.Add(addr); err != nil {
				t.Fatalf("add %s: %v", addr, err)
			}
			addrs = append(addrs, addr)
			time.Sleep(4 * time.Millisecond)
		}
		// Fire every drain concurrently just after the first eviction has
		// claimed the lock, while the rest are still inbound.
		if d := time.Duration(38+4*round)*time.Millisecond - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		var wg sync.WaitGroup
		done := make(chan struct{})
		for _, addr := range addrs {
			wg.Add(1)
			go func(addr string) {
				defer wg.Done()
				if err := f.Remove(addr); err != nil {
					t.Errorf("remove %s: %v", addr, err)
				}
			}(addr)
		}
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("drain deadlocked against probe-driven eviction")
		}
	}
}

// slowEvictLog sleeps 25 ms on the fleet's eviction line, which the
// probe goroutine logs after releasing f.mu and before it probes again.
type slowEvictLog struct{ slog.Handler }

func (h slowEvictLog) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "worker evicted after failed probes" {
		time.Sleep(25 * time.Millisecond)
	}
	return h.Handler.Handle(ctx, r)
}

// TestElasticChurnHammer races campaigns against continuous membership
// churn and stats polling — the -race exercise of the lock-free view
// swap, probe-driven hooks, and re-dispatch accounting.
func TestElasticChurnHammer(t *testing.T) {
	const n, m, k, batch = 200, 120, 4, 12
	_, w0 := startWorker(t)
	_, w1 := startWorker(t)
	_, w2 := startWorker(t)
	fed, _, f := startElasticFrontend(t, w0, w1)
	w2Addr := w2.Listener.Addr().String()

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn: worker 2 joins and drains in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.Add(w2Addr); err == nil {
				time.Sleep(2 * time.Millisecond)
				_ = f.Remove(w2Addr)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Stats and worker-list polling.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			getJSON(t, fed.URL+"/v1/stats", nil)
			getJSON(t, fed.URL+"/v1/workers", nil)
			time.Sleep(time.Millisecond)
		}
	}()

	// Campaigns across distinct seeds while the ring churns.
	nm := noise.Model{}
	for seed := uint64(1); seed <= 6; seed++ {
		ys := noisyBatch(t, n, m, k, batch, seed, nm)
		var sch schemeEntry
		postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch)
		p := runCampaignHTTP(t, fed.URL, campaignRequest{Scheme: sch.ID, K: k, Batch: ys})
		if p.Failed != 0 || p.Completed != batch {
			t.Fatalf("seed %d: completed=%d failed=%d, want %d/0", seed, p.Completed, p.Failed, batch)
		}
	}
	close(stop)
	wg.Wait()
}

// reListen rebinds a TCP listener on addr — the "worker restarted on
// the same host:port" move of the rejoin test. The port was just
// released by the dead httptest server, but another process may grab
// it; callers skip on failure.
func reListen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// remoteHandlerFor serves the worker shard API over an existing engine
// cluster — the handler of a revived worker process.
func remoteHandlerFor(t testing.TB, c *engine.Cluster) http.Handler {
	t.Helper()
	return remote.NewServer(c, remote.ServerOptions{}).Handler()
}
