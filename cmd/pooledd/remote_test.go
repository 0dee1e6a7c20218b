package main

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
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
)

// startWorker runs an in-process `pooledd -worker`: a local engine
// cluster behind the shard API on a loopback listener.
func startWorker(t testing.TB) (*engine.Cluster, *httptest.Server) {
	t.Helper()
	cluster := engine.NewCluster(engine.ClusterConfig{
		Shards: 1,
		Shard:  engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})
	t.Cleanup(cluster.Close)
	ts := httptest.NewServer(remote.NewServer(cluster, remote.ServerOptions{}).Handler())
	t.Cleanup(ts.Close)
	return cluster, ts
}

// startFrontend runs a pooledd frontend whose shards are remote clients
// against the given workers — the in-process form of
// `pooledd -workers host:port,host:port`.
func startFrontend(t testing.TB, workers []*httptest.Server) (*httptest.Server, *engine.Cluster, []*remote.Shard) {
	t.Helper()
	shards := make([]engine.Shard, len(workers))
	clients := make([]*remote.Shard, len(workers))
	for i, w := range workers {
		sh := remote.New(remote.Options{
			Addr:          w.Listener.Addr().String(),
			ProbeInterval: 25 * time.Millisecond,
			RetryBackoff:  5 * time.Millisecond,
			Retries:       1,
		})
		t.Cleanup(sh.Close)
		shards[i], clients[i] = sh, sh
	}
	cluster := engine.NewClusterOf(shards...)
	srv := newServer(cluster, campaign.Config{})
	t.Cleanup(srv.campaigns.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, cluster, clients
}

// noisyBatch builds the deterministic test instance: the design graph
// (identical on every node by seeded-build determinism), signals, and
// counts measured under the noise model's per-signal streams.
func noisyBatch(t testing.TB, n, m, k, batch int, seed uint64, nm noise.Model) [][]int64 {
	t.Helper()
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ys := make([][]int64, batch)
	for b := range ys {
		sigma := bitvec.Random(n, k, rng.NewRandSeeded(seed*1000+uint64(b)))
		ys[b] = query.Execute(g, sigma, query.Options{Oracle: nm.Oracle(), Seed: nm.SignalSeed(b)}).Y
	}
	return ys
}

// runCampaignHTTP posts a campaign and long-polls it to a terminal
// state, returning the final progress.
func runCampaignHTTP(t testing.TB, url string, req campaignRequest) campaign.Progress {
	t.Helper()
	var created campaignCreated
	resp := postJSON(t, url+"/v1/campaigns", req, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		var p campaign.Progress
		getJSON(t, url+"/v1/campaigns/"+created.ID+"?wait=2s", &p)
		if p.Terminal() && p.Settled() == p.Total {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never terminal: %+v", created.ID, p)
		}
	}
}

func supportsByIndex(p campaign.Progress) map[int][]int {
	out := make(map[int][]int, len(p.Results))
	for _, jr := range p.Results {
		if jr.Error == "" {
			out[jr.Index] = jr.Support
		}
	}
	return out
}

// TestRemoteFederationE2E is the acceptance run: a frontend over two
// worker processes decodes a noisy campaign bit-identically to a
// single-node pooledd, routes schemes to both workers, and — when one
// worker dies mid-campaign — settles its jobs with errors while the
// campaign still terminates and the dead shard shows unhealthy in
// /v1/stats.
func TestRemoteFederationE2E(t *testing.T) {
	const n, m, k, batch = 400, 240, 5, 24
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.0, Seed: 3}

	// Single-node baseline.
	local, _, _ := newTestServerWith(t, engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})

	// Federated: one frontend, two workers.
	w0Cluster, w0 := startWorker(t)
	w1Cluster, w1 := startWorker(t)
	fed, fedCluster, clients := startFrontend(t, []*httptest.Server{w0, w1})

	// Seeds whose specs land on shard 0 and shard 1 of the frontend.
	seedFor := func(shard int) uint64 {
		for seed := uint64(1); ; seed++ {
			if fedCluster.ShardOf(engine.SpecFor(pooling.RandomRegular{}, n, m, seed)) == shard {
				return seed
			}
		}
	}
	seed0, seed1 := seedFor(0), seedFor(1)

	runOn := func(url string, seed uint64, ys [][]int64) campaign.Progress {
		var sch schemeEntry
		resp := postJSON(t, url+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create scheme: status %d", resp.StatusCode)
		}
		return runCampaignHTTP(t, url, campaignRequest{Scheme: sch.ID, K: k, Batch: ys, Noise: &nm})
	}

	for i, seed := range []uint64{seed0, seed1} {
		ys := noisyBatch(t, n, m, k, batch, seed, nm)
		want := runOn(local.URL, seed, ys)
		got := runOn(fed.URL, seed, ys)
		if want.Completed != batch || got.Completed != batch {
			t.Fatalf("campaign %d: completed local=%d fed=%d, want %d", i, want.Completed, got.Completed, batch)
		}
		if !reflect.DeepEqual(supportsByIndex(got), supportsByIndex(want)) {
			t.Fatalf("campaign %d: federated supports differ from single-node run", i)
		}
	}

	// Both workers decoded — the campaigns routed by spec hash.
	if c0 := w0Cluster.Stats().Total.JobsCompleted; c0 < batch {
		t.Fatalf("worker 0 completed %d jobs, want >= %d", c0, batch)
	}
	if c1 := w1Cluster.Stats().Total.JobsCompleted; c1 < batch {
		t.Fatalf("worker 1 completed %d jobs, want >= %d", c1, batch)
	}

	// Kill worker 1 mid-campaign: the dispatcher re-dispatches its
	// orphans through the ring to the survivor — the campaign completes
	// with zero failed jobs and supports bit-identical to the baseline.
	const bigBatch = 64
	ysKill := noisyBatch(t, n, m, k, bigBatch, seed1, nm)
	wantKill := runOn(local.URL, seed1, ysKill)
	var sch schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed1}, &sch)
	var created campaignCreated
	resp := postJSON(t, fed.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ysKill, Noise: &nm}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create kill campaign: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var p campaign.Progress
		getJSON(t, fed.URL+"/v1/campaigns/"+created.ID, &p)
		if p.Settled() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job settled before kill")
		}
		time.Sleep(time.Millisecond)
	}
	w1.Close()

	deadline = time.Now().Add(60 * time.Second)
	var p campaign.Progress
	for {
		getJSON(t, fed.URL+"/v1/campaigns/"+created.ID+"?wait=2s", &p)
		if p.Terminal() && p.Settled() == p.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign wedged after worker death: %+v", p)
		}
	}
	if p.Failed != 0 || p.Canceled != 0 {
		t.Fatalf("worker death lost jobs: completed=%d failed=%d canceled=%d", p.Completed, p.Failed, p.Canceled)
	}
	if p.Completed != bigBatch {
		t.Fatalf("completed = %d, want %d", p.Completed, bigBatch)
	}
	if !reflect.DeepEqual(supportsByIndex(p), supportsByIndex(wantKill)) {
		t.Fatal("supports diverged from the single-node baseline after mid-campaign worker death")
	}

	// The frontend keeps serving and /v1/stats surfaces the dead worker.
	for time.Now().Before(deadline) && clients[1].Healthy() {
		time.Sleep(5 * time.Millisecond)
	}
	var stats struct {
		Shards []struct {
			Shard   int    `json:"shard"`
			Healthy bool   `json:"healthy"`
			Addr    string `json:"addr"`
		} `json:"shards"`
	}
	getJSON(t, fed.URL+"/v1/stats", &stats)
	if len(stats.Shards) != 2 {
		t.Fatalf("stats shards = %d, want 2", len(stats.Shards))
	}
	if !stats.Shards[0].Healthy || stats.Shards[1].Healthy {
		t.Fatalf("shard health = %v/%v, want healthy/unhealthy",
			stats.Shards[0].Healthy, stats.Shards[1].Healthy)
	}
	for _, sh := range stats.Shards {
		if sh.Addr == "" {
			t.Fatalf("shard %d missing worker addr in stats", sh.Shard)
		}
	}

	// Surviving worker still decodes a fresh campaign.
	ys0 := noisyBatch(t, n, m, k, 4, seed0, nm)
	if p := runOn(fed.URL, seed0, ys0); p.Completed != 4 {
		t.Fatalf("surviving shard campaign: %+v", p)
	}
}

// TestFederatedCampaignsBackToBack: an idle federated fleet does not
// refuse campaigns. One client runs 40 campaigns back to back, each
// created the moment the last one finished, against a frontend over one
// worker sized like `pooledd -worker` (4 shards, default decode workers
// and queues, far shallower than a 64-job frame). Every create is
// admitted and every job completes, for 8-job and 64-job campaigns.
func TestFederatedCampaignsBackToBack(t *testing.T) {
	const n, m, k, campaigns = 2000, 300, 10, 40
	wc := engine.NewCluster(engine.ClusterConfig{Shards: 4, Shard: engine.Config{CacheCapacity: 16}})
	t.Cleanup(wc.Close)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	w := httptest.NewServer(remote.NewServer(wc, remote.ServerOptions{Logger: quiet}).Handler())
	t.Cleanup(w.Close)
	opts := &remote.Options{Logger: quiet}
	cluster := engine.NewClusterOf(dialWorker(*opts, w.Listener.Addr().String()))
	t.Cleanup(cluster.Close)
	srv := newServer(cluster, campaign.Config{})
	srv.workerOpts = opts
	t.Cleanup(srv.campaigns.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var sch schemeEntry
	if resp := postJSON(t, ts.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: 1}, &sch); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create scheme: status %d", resp.StatusCode)
	}
	for _, size := range []int{8, 64} {
		ys := noisyBatch(t, n, m, k, size, 1, noise.Model{})
		refused := 0
		for c := 0; c < campaigns; c++ {
			var created campaignCreated
			resp := postJSON(t, ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, &created)
			for tries := 0; resp.StatusCode == http.StatusTooManyRequests && tries < 100; tries++ {
				refused++
				time.Sleep(10 * time.Millisecond)
				resp = postJSON(t, ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, &created)
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("%d-job campaign %d: create status %d", size, c, resp.StatusCode)
			}
			deadline := time.Now().Add(60 * time.Second)
			var p campaign.Progress
			for {
				getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"?wait=2s", &p)
				if p.Terminal() && p.Settled() == p.Total {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d-job campaign %d never finished: %+v", size, c, p)
				}
			}
			if p.Completed != size || p.Failed != 0 {
				t.Fatalf("%d-job campaign %d: completed %d, failed %d", size, c, p.Completed, p.Failed)
			}
		}
		if refused != 0 {
			t.Errorf("%d-job campaigns: %d creates refused with 429 on an idle fleet, want 0", size, refused)
		}
	}
}
