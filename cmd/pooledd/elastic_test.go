package main

import (
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/remote"
	"pooleddata/internal/rng"
	"pooleddata/metrics"
)

// Elastic-fleet end-to-end coverage: runtime worker registration and
// drain over the HTTP membership API, routing around a dead worker by
// health alone, and membership churn racing live campaigns.

// startElasticFrontend boots a frontend over the given workers — the
// in-process form of `pooledd -workers ...` with the /v1/workers
// endpoints live. Probe and retry knobs are tightened so health flips
// land within test timeouts.
func startElasticFrontend(t testing.TB, workers ...*httptest.Server) (*httptest.Server, *server, *engine.Cluster) {
	t.Helper()
	opts := &remote.Options{
		ProbeInterval: 20 * time.Millisecond,
		RetryBackoff:  5 * time.Millisecond,
		Retries:       1,
	}
	shards := make([]engine.Shard, len(workers))
	for i, w := range workers {
		shards[i] = dialWorker(*opts, w.Listener.Addr().String())
	}
	cluster := engine.NewClusterOf(shards...)
	t.Cleanup(cluster.Close)
	srv := newServer(cluster, campaign.Config{})
	srv.workerOpts = opts
	t.Cleanup(srv.campaigns.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv, cluster
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

// TestDuplicateJoinBuildsNoClient: a join refused as a duplicate builds
// no client for the address, so nothing probes the member's worker on
// its behalf. With the worker's listener closed after the member's
// first probe answered, a second addWorker of its address is refused
// and leaves no health transition, neither in the logs nor in
// pooled_remote_worker_health_transitions_total.
func TestDuplicateJoinBuildsNoClient(t *testing.T) {
	_, w := startWorker(t)
	addr := w.Listener.Addr().String()
	logs := &logBuffer{}
	reg := metrics.NewRegistry()
	opts := &remote.Options{ProbeInterval: time.Hour, Metrics: reg, Logger: slog.New(slog.NewTextHandler(logs, nil))}
	cluster := engine.NewClusterOf(dialWorker(*opts, addr))
	t.Cleanup(cluster.Close)
	srv := newServer(cluster, campaign.Config{})
	srv.workerOpts = opts
	t.Cleanup(srv.campaigns.Close)

	member := cluster.Shard(0)
	deadline := time.Now().Add(5 * time.Second)
	for member.Workers() == 0 { // the gauges of the first probe's answer
		if time.Now().After(deadline) {
			t.Fatal("the member's first probe never answered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.Close()

	if err := srv.addWorker(addr); !errors.Is(err, engine.ErrDuplicateShard) {
		t.Fatalf("duplicate join: err = %v, want ErrDuplicateShard", err)
	}
	if strings.Contains(logs.String(), "worker health transition") {
		t.Errorf("a refused join logged a health transition:\n%s", logs)
	}
	for _, fam := range reg.Gather() {
		if fam.Name != "pooled_remote_worker_health_transitions_total" {
			continue
		}
		for _, s := range fam.Samples {
			if s.Value != 0 {
				t.Errorf("%s%v = %v after a refused join, want 0", fam.Name, s.Values, s.Value)
			}
		}
	}
	if !member.Healthy() {
		t.Fatal("the member flipped unhealthy without a probe of its own")
	}
}

// TestElasticDeadWorkerRoutedAround kills a worker's listener: while
// its probe fails, the key it owns names the survivor as owner and
// decodes there, and /v1/workers lists the dead worker healthy:false;
// once the worker answers again on the same address, the key routes
// back to it. The ring never changes: health alone moves the key.
func TestElasticDeadWorkerRoutedAround(t *testing.T) {
	const n, m, k = 300, 240, 5
	_, w0 := startWorker(t)
	w1Engine, w1 := startWorker(t)
	w0Addr, w1Addr := w0.Listener.Addr().String(), w1.Listener.Addr().String()
	fed, srv, cluster := startElasticFrontend(t, w0, w1)
	noChurn := func(when string) {
		t.Helper()
		if adds, removes := cluster.MembershipChanges(); adds != 0 || removes != 0 {
			t.Fatalf("%s: membership changes adds=%d removes=%d, want 0/0", when, adds, removes)
		}
	}
	owner := func(id string) string {
		var got schemeEntry
		getJSON(t, fed.URL+"/v1/schemes/"+id, &got)
		return got.Owner
	}
	waitOwner := func(id, want, why string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for owner(id) != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: owner of %s is %q, want %q", why, id, owner(id), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	var sch schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seedOwnedByID(cluster, n, m, w1Addr)}, &sch)
	waitOwner(sch.ID, w1Addr, "before the death")
	ent, _ := srv.lookup(sch.ID)
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(5))
	y := query.Execute(ent.scheme.G, sigma, query.Options{}).Y
	decodeHTTP(t, fed.URL, sch.ID, k, y, sigma.Support())

	// Kill the listener: once the probe fails, the key routes to the
	// survivor, and a decode of it succeeds there.
	w1.Close()
	waitOwner(sch.ID, w0Addr, "after the listener died")
	decodeHTTP(t, fed.URL, sch.ID, k, y, sigma.Support())
	var wl struct {
		Workers []workerStatus `json:"workers"`
		Members []string       `json:"members"`
	}
	getJSON(t, fed.URL+"/v1/workers", &wl)
	want := []workerStatus{{Addr: w0Addr, Healthy: true}, {Addr: w1Addr, Healthy: false}}
	if !reflect.DeepEqual(wl.Workers, want) || len(wl.Members) != 2 {
		t.Fatalf("workers after the death = %+v, members %v; want %+v and both members", wl.Workers, wl.Members, want)
	}
	noChurn("after the death")

	// Revive the worker on the same address: the key routes back, and
	// its decode runs there.
	ln, err := reListen(w1Addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", w1Addr, err)
	}
	revived := &http.Server{Handler: remoteHandlerFor(t, w1Engine)}
	go revived.Serve(ln)
	t.Cleanup(func() { revived.Close() })
	waitOwner(sch.ID, w1Addr, "after the revival")
	decodeHTTP(t, fed.URL, sch.ID, k, y, sigma.Support())
	if c := w1Engine.Stats().Total.JobsCompleted; c != 2 {
		t.Fatalf("worker decoded %d jobs, want one before its death and one after its revival", c)
	}
	noChurn("after the revival")
}

// TestDrainDeadWorkersConcurrently drains, concurrently over DELETE
// /v1/workers/{addr}, workers that never listened: once right after
// they join, with their first probes in flight, and once after every
// probe has failed. Every drain must return 200 and leave the boot
// worker the only member. The requests go straight to the handler, so
// the test fails on its own deadline from its own goroutine, and its
// cleanup closes only the boot worker's client and servers no request
// is still in.
func TestDrainDeadWorkersConcurrently(t *testing.T) {
	_, w0 := startWorker(t)
	w0Addr := w0.Listener.Addr().String()
	_, srv, cluster := startElasticFrontend(t, w0)
	h := srv.handler()
	serve := func(method, path, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code
	}
	unhealthy := func(addrs []string) bool {
		for _, sh := range cluster.Stats().Shards {
			for _, a := range addrs {
				if sh.ID == a && sh.Healthy {
					return false
				}
			}
		}
		return true
	}

	for round, settle := range []bool{false, true} {
		var addrs []string
		for i := 0; i < 5; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			ln.Close()
			if code := serve(http.MethodPost, "/v1/workers", `{"addr":"`+addr+`"}`); code != http.StatusCreated {
				t.Fatalf("round %d: register %s: status %d", round, addr, code)
			}
			addrs = append(addrs, addr)
		}
		deadline := time.After(30 * time.Second)
		for settle && !unhealthy(addrs) {
			select {
			case <-deadline:
				t.Fatalf("round %d: probes never marked the dead workers unhealthy", round)
			case <-time.After(5 * time.Millisecond):
			}
		}
		// One buffered slot per drain, so no drain blocks on a test
		// that has already failed.
		codes := make(chan int, len(addrs))
		for _, addr := range addrs {
			go func(addr string) { codes <- serve(http.MethodDelete, "/v1/workers/"+addr, "") }(addr)
		}
		for range addrs {
			select {
			case code := <-codes:
				if code != http.StatusOK {
					t.Errorf("round %d: drain answered %d, want 200", round, code)
				}
			case <-deadline:
				t.Fatalf("round %d: concurrent drains of dead workers did not return", round)
			}
		}
		if got := cluster.MemberIDs(); !reflect.DeepEqual(got, []string{w0Addr}) {
			t.Fatalf("round %d: members after the drains = %v, want only %s", round, got, w0Addr)
		}
	}
}

// TestElasticChurnHammer races campaigns against continuous membership
// churn and stats polling — the -race exercise of the lock-free view
// swap, the join and drain paths, and re-dispatch accounting.
func TestElasticChurnHammer(t *testing.T) {
	const n, m, k, batch = 200, 120, 4, 12
	_, w0 := startWorker(t)
	_, w1 := startWorker(t)
	_, w2 := startWorker(t)
	fed, srv, _ := startElasticFrontend(t, w0, w1)
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
			if err := srv.addWorker(w2Addr); err == nil {
				time.Sleep(2 * time.Millisecond)
				_ = srv.removeWorker(w2Addr)
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
// the same host:port" move of the dead-worker test. The port was just
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
