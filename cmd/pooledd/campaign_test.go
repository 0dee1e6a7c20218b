package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

func newTestServerWith(t testing.TB, cfg engine.ClusterConfig) (*httptest.Server, *server, *engine.Cluster) {
	t.Helper()
	cluster := engine.NewCluster(cfg)
	t.Cleanup(cluster.Close)
	srv := newServer(cluster, campaign.Config{})
	t.Cleanup(srv.campaigns.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv, cluster
}

func getJSON(t testing.TB, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// measuredBatch registers a scheme over HTTP and measures batch signals
// against the same cached design locally.
func measuredBatch(t testing.TB, url string, cluster *engine.Cluster, n, k, m, batch int, seed uint64) (schemeEntry, []*bitvec.Vector, [][]int64) {
	t.Helper()
	var sch schemeEntry
	resp := postJSON(t, url+"/v1/schemes", schemeRequest{N: n, M: m, Seed: seed}, &sch)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create scheme: status %d", resp.StatusCode)
	}
	es, err := cluster.Scheme(nil, n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([]*bitvec.Vector, batch)
	ys := make([][]int64, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(seed+uint64(500+b)))
		ys[b] = query.Execute(es.G, signals[b], query.Options{}).Y
	}
	return sch, signals, ys
}

func TestCampaignHTTPLifecycle(t *testing.T) {
	ts, _, cluster := newTestServerWith(t, engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 2},
	})
	const n, k, m, batch = 300, 5, 240, 8
	sch, signals, ys := measuredBatch(t, ts.URL, cluster, n, k, m, batch, 21)

	var created campaignCreated
	resp := postJSON(t, ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}
	if created.Total != batch || created.ID == "" {
		t.Fatalf("created = %+v", created)
	}

	// Long-poll to completion; settled counts must be monotone.
	last := -1
	deadline := time.Now().Add(15 * time.Second)
	var p campaign.Progress
	for {
		resp := getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"?wait=100ms", &p)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d", resp.StatusCode)
		}
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
	if p.State != campaign.Done || p.Completed != batch {
		t.Fatalf("final progress = %+v", p)
	}
	for i, res := range p.Results {
		if !bitvec.FromIndices(n, res.Support).Equal(signals[i]) {
			t.Fatalf("campaign result %d did not recover its signal", i)
		}
	}

	// The campaign shows up in the listing.
	var list struct {
		Campaigns []campaign.Progress `json:"campaigns"`
	}
	getJSON(t, ts.URL+"/v1/campaigns", &list)
	if len(list.Campaigns) != 1 || list.Campaigns[0].ID != created.ID {
		t.Fatalf("list = %+v", list)
	}

	// Stats carry campaign gauges and per-shard breakdowns.
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.CampaignsFinished != 1 || st.CampaignsActive != 0 {
		t.Fatalf("campaign gauges = %+v", st)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("got %d shard breakdowns", len(st.Shards))
	}
	if st.JobsCompleted != batch {
		t.Fatalf("aggregate jobs completed = %d, want %d", st.JobsCompleted, batch)
	}
	if _, ok := st.DecodeLatency["mn"]; !ok {
		t.Fatalf("stats missing mn latency histogram: %+v", st.DecodeLatency)
	}

	// Unknown id → 404.
	if resp := getJSON(t, ts.URL+"/v1/campaigns/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: status %d", resp.StatusCode)
	}
}

func TestCampaignHTTPCancel(t *testing.T) {
	ts, _, cluster := newTestServerWith(t, engine.ClusterConfig{
		Shards: 1,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 1, QueueDepth: 16},
	})
	const n, k, m, batch = 150, 3, 110, 6
	sch, _, ys := measuredBatch(t, ts.URL, cluster, n, k, m, batch, 31)

	// Wedge the single worker so the campaign's jobs stay queued, then
	// cancel while they wait.
	es, err := cluster.Scheme(nil, n, m, 31)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	wedge, err := cluster.Submit(context.Background(), engine.Job{Scheme: es, Y: ys[0], K: k, Dec: blockDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for cluster.Shard(0).QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var created campaignCreated
	postJSON(t, ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, &created)

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/campaigns/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}
	close(release)
	if _, err := wedge.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	var p campaign.Progress
	deadline = time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"?wait=100ms", &p)
		if p.Settled() == p.Total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled campaign did not settle: %+v", p)
		}
	}
	if p.State != campaign.Canceled || p.Canceled == 0 {
		t.Fatalf("after cancel: %+v", p)
	}
}

// blockDecoder parks until released (package main's copy; the engine's
// test helper is not importable).
type blockDecoder struct{ release <-chan struct{} }

func (blockDecoder) Name() string { return "block" }

func (d blockDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	<-d.release
	return bitvec.New(g.N()), nil
}

func TestSaturatedDecodeAndCampaignReturn429(t *testing.T) {
	ts, _, cluster := newTestServerWith(t, engine.ClusterConfig{
		Shards: 1,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 1, QueueDepth: 1},
	})
	const n, k, m = 150, 3, 110
	sch, _, ys := measuredBatch(t, ts.URL, cluster, n, k, m, 2, 41)

	// Wedge the worker and fill the 1-deep queue.
	es, err := cluster.Scheme(nil, n, m, 41)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	shard := cluster.Shard(0)
	futs := make([]*engine.Future, 0, 2)
	fut, err := cluster.Submit(context.Background(), engine.Job{Scheme: es, Y: ys[0], K: k, Dec: blockDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	futs = append(futs, fut)
	deadline := time.Now().Add(time.Second)
	for shard.QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fut, err = cluster.Submit(context.Background(), engine.Job{Scheme: es, Y: ys[0], K: k, Dec: blockDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	futs = append(futs, fut)
	if !shard.Saturated() {
		t.Fatal("shard not saturated")
	}

	// Single decode → 429 + Retry-After.
	resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Counts: ys[0]}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated decode: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated decode: no Retry-After header")
	}
	// Batch decode → 429.
	if resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Batch: ys}, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch decode: status %d", resp.StatusCode)
	}
	// Campaign submission → 429 + Retry-After.
	resp = postJSON(t, ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated campaign: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated campaign: no Retry-After header")
	}

	// Rejections are surfaced in /v1/stats.
	var st statsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.JobsRejected != 1+2+2 {
		t.Fatalf("jobs rejected = %d, want 5 (1 decode + 2 batch + 2 campaign)", st.JobsRejected)
	}

	close(release)
	for _, fut := range futs {
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Back under capacity: the same decode succeeds.
	if resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Counts: ys[0]}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("decode after drain: status %d", resp.StatusCode)
	}
}

func TestPreloadDesignsWarmStart(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, seed := range []uint64{51, 52} {
		g, err := pooling.RandomRegular{}.Build(120, 90, pooling.BuildOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := labio.WriteDesign(&buf, g); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("standing-%d.csv", i))
		if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}

	ts, srv, _ := newTestServerWith(t, engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 1},
	})
	var logbuf bytes.Buffer
	if err := preloadDesigns(srv, paths, &logbuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(logbuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("preload logged %d lines, want 2:\n%s", len(lines), logbuf.String())
	}
	for _, line := range lines {
		if !strings.Contains(line, "preloaded scheme") || !strings.Contains(line, "shard=") {
			t.Fatalf("preload log line = %q", line)
		}
	}

	// The preloaded schemes are registered and decodable immediately.
	ent, ok := srv.lookup("s1")
	if !ok {
		t.Fatal("preloaded scheme not registered as s1")
	}
	sigma := bitvec.Random(120, 3, rng.NewRandSeeded(8))
	y := query.Execute(ent.scheme.G, sigma, query.Options{}).Y
	var dec decodeResponse
	resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: ent.ID, K: 3, Counts: y}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode on preloaded scheme: status %d", resp.StatusCode)
	}
	if !bitvec.FromIndices(120, dec.Support).Equal(sigma) {
		t.Fatal("decode on preloaded scheme failed")
	}
}

// TestCampaignHammer floods the cluster with concurrent campaigns across
// distinct designs (hence shards) under -race.
func TestCampaignHammer(t *testing.T) {
	ts, _, cluster := newTestServerWith(t, engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})
	const n, k, m, batch, tenants = 200, 4, 160, 5, 6

	type tenant struct {
		sch     schemeEntry
		signals []*bitvec.Vector
		ys      [][]int64
	}
	tenants_ := make([]tenant, tenants)
	for i := range tenants_ {
		sch, signals, ys := measuredBatch(t, ts.URL, cluster, n, k, m, batch, uint64(60+i))
		tenants_[i] = tenant{sch, signals, ys}
	}

	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := range tenants_ {
		wg.Add(1)
		go func(tn tenant) {
			defer wg.Done()
			var created campaignCreated
			resp := postJSON(t, ts.URL+"/v1/campaigns", campaignRequest{Scheme: tn.sch.ID, K: k, Batch: tn.ys}, &created)
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("create: status %d", resp.StatusCode)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			var p campaign.Progress
			for {
				getJSON(t, ts.URL+"/v1/campaigns/"+created.ID+"?wait=250ms", &p)
				if p.Terminal() && p.Settled() == p.Total {
					break
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("campaign %s stuck: %+v", created.ID, p)
					return
				}
			}
			if p.Completed != batch {
				errs <- fmt.Errorf("campaign %s: %+v", created.ID, p)
				return
			}
			for b, res := range p.Results {
				if !bitvec.FromIndices(n, res.Support).Equal(tn.signals[b]) {
					errs <- fmt.Errorf("campaign %s result %d wrong", created.ID, b)
					return
				}
			}
		}(tenants_[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkConcurrentCampaigns is the acceptance benchmark: two tenants
// with distinct designs — pinned to different shards, per-shard cache
// capacity 1 — run campaigns concurrently. Pointer identity of each
// design's cached scheme is asserted throughout (no cross-shard cache
// eviction), and the long-polled progress must increase monotonically
// until completion.
func BenchmarkConcurrentCampaigns(b *testing.B) {
	ts, _, cluster := newTestServerWith(b, engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 1, Workers: 2, QueueDepth: 64},
	})
	const n, k, m, batch = 400, 6, 300, 16

	// Find two seeds owned by different shards.
	seedA := uint64(1)
	shardA := cluster.ShardOf(engine.SpecFor(pooling.RandomRegular{}, n, m, seedA))
	seedB := seedA + 1
	for cluster.ShardOf(engine.SpecFor(pooling.RandomRegular{}, n, m, seedB)) == shardA {
		seedB++
	}

	type tenant struct {
		sch    schemeEntry
		ys     [][]int64
		scheme *engine.Scheme
	}
	mk := func(seed uint64) tenant {
		sch, _, ys := measuredBatch(b, ts.URL, cluster, n, k, m, batch, seed)
		es, err := cluster.Scheme(nil, n, m, seed)
		if err != nil {
			b.Fatal(err)
		}
		return tenant{sch, ys, es}
	}
	ta, tb := mk(seedA), mk(seedB)
	if ta.scheme.Home() == tb.scheme.Home() {
		b.Fatal("tenants landed on the same shard")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, tn := range []tenant{ta, tb} {
			wg.Add(1)
			go func(tn tenant) {
				defer wg.Done()
				var created campaignCreated
				resp := postJSON(b, ts.URL+"/v1/campaigns", campaignRequest{Scheme: tn.sch.ID, K: k, Batch: tn.ys}, &created)
				if resp.StatusCode != http.StatusAccepted {
					b.Errorf("create: status %d", resp.StatusCode)
					return
				}
				last := -1
				var p campaign.Progress
				for {
					getJSON(b, ts.URL+"/v1/campaigns/"+created.ID+"?wait=250ms", &p)
					if p.Settled() < last {
						b.Errorf("progress went backwards: %d after %d", p.Settled(), last)
						return
					}
					last = p.Settled()
					if p.Terminal() && p.Settled() == p.Total {
						break
					}
				}
				if p.Completed != batch {
					b.Errorf("campaign %s: %+v", created.ID, p)
				}
			}(tn)
		}
		wg.Wait()

		// No cross-shard eviction: both designs' schemes kept identity.
		nowA, _ := cluster.Scheme(nil, n, m, seedA)
		nowB, _ := cluster.Scheme(nil, n, m, seedB)
		if nowA != ta.scheme || nowB != tb.scheme {
			b.Fatal("scheme identity lost during concurrent campaigns")
		}
	}
	b.StopTimer()
	if ev := cluster.Stats().Total.Evictions; ev != 0 {
		b.Fatalf("evictions = %d, want 0", ev)
	}
	b.ReportMetric(float64(2*batch), "jobs/op")
}
