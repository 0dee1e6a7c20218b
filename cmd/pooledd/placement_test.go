package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/remote"
	"pooleddata/internal/rng"
	"pooleddata/metrics"
)

// A design is known by its key from registration on — the spec key, or
// an upload's GraphKey — so a ring change moves no registry state, and
// each worker installs each design once, whichever scheme value a job
// carries.

// countingWorker runs an in-process worker; installs reads its
// pooled_worker_scheme_installs_total.
func countingWorker(t testing.TB) (c *engine.Cluster, ts *httptest.Server, installs func() float64) {
	t.Helper()
	c = engine.NewCluster(engine.ClusterConfig{
		Shards: 1,
		Shard:  engine.Config{CacheCapacity: 8, Workers: 2, QueueDepth: 64},
	})
	t.Cleanup(c.Close)
	reg := metrics.NewRegistry()
	ts = httptest.NewServer(remote.NewServer(c, remote.ServerOptions{Metrics: reg}).Handler())
	t.Cleanup(ts.Close)
	return c, ts, func() float64 {
		for _, fam := range reg.Gather() {
			if fam.Name == "pooled_worker_scheme_installs_total" {
				return fam.Samples[0].Value
			}
		}
		return 0
	}
}

// seedJoinedBy searches for a default-design seed whose spec key the ring
// over members assigns to the member with the given id.
func seedJoinedBy(n, m int, members []string, id string) uint64 {
	ring := engine.NewRing(members, engine.DefaultVnodes)
	for seed := uint64(1); ; seed++ {
		if ring.LookupID(engine.SpecFor(pooling.RandomRegular{}, n, m, seed).Key()) == id {
			return seed
		}
	}
}

// decodeHTTP decodes counts y against scheme id through POST /v1/decode
// and checks the support.
func decodeHTTP(t testing.TB, url, id string, k int, y []int64, want []int) {
	t.Helper()
	var res decodeResponse
	if resp := postJSON(t, url+"/v1/decode", decodeRequest{Scheme: id, K: k, Counts: y}, &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("decode %s: status %d", id, resp.StatusCode)
	}
	if !reflect.DeepEqual(res.Support, want) {
		t.Fatalf("decode %s: support %v, want %v", id, res.Support, want)
	}
}

// TestReuploadInstallsOnce: one CSV uploaded three times to a federated
// frontend, with a decode after each upload, is installed on the worker
// once. The uploads share one GraphKey, so they answer one id.
func TestReuploadInstallsOnce(t *testing.T) {
	const n, m, k = 300, 240, 5
	_, w, installs := countingWorker(t)
	fed, _, _ := startElasticFrontend(t, w)
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(8))
	y := query.Execute(g, sigma, query.Options{}).Y
	ids := map[string]bool{}
	for i := 0; i < 3; i++ {
		ent := uploadDesign(t, fed.URL, g)
		ids[ent.ID] = true
		decodeHTTP(t, fed.URL, ent.ID, k, y, sigma.Support())
	}
	if len(ids) != 1 {
		t.Fatalf("three uploads registered ids %v, want one", ids)
	}
	if got := installs(); got != 1 {
		t.Fatalf("worker counted %v installs of one design uploaded three times, want 1", got)
	}
}

// TestPreJoinSchemeInstallsOnce: after a worker joins and takes a
// registered spec's key, a job carrying the registry's pre-join scheme
// value (as a campaign admitted before the join does) and a decode by id
// both run on the joined worker, which installs the design once.
func TestPreJoinSchemeInstallsOnce(t *testing.T) {
	const n, m, k = 300, 240, 5
	_, w0, _ := countingWorker(t)
	w1Cluster, w1, installs := countingWorker(t)
	fed, srv, _ := startElasticFrontend(t, w0)
	w0Addr, w1Addr := w0.Listener.Addr().String(), w1.Listener.Addr().String()
	seed := seedJoinedBy(n, m, []string{w0Addr, w1Addr}, w1Addr)

	var sch schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: seed}, &sch)
	ent, ok := srv.lookup(sch.ID)
	if !ok {
		t.Fatalf("scheme %s not registered", sch.ID)
	}
	preJoin := ent.scheme
	if resp := postJSON(t, fed.URL+"/v1/workers", workerRequest{Addr: w1Addr}, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register worker: status %d", resp.StatusCode)
	}

	sigma := bitvec.Random(n, k, rng.NewRandSeeded(9))
	y := query.Execute(preJoin.G, sigma, query.Options{}).Y
	res, err := srv.cluster.Decode(context.Background(), engine.Job{Scheme: preJoin, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Support, sigma.Support()) {
		t.Fatalf("pre-join scheme decoded %v, want %v", res.Support, sigma.Support())
	}
	decodeHTTP(t, fed.URL, sch.ID, k, y, sigma.Support())
	if c := w1Cluster.Stats().Total.JobsCompleted; c != 2 {
		t.Fatalf("joined worker completed %d jobs, want both", c)
	}
	if got := installs(); got != 1 {
		t.Fatalf("joined worker counted %v installs of one design, want 1", got)
	}
}

// countedShard counts the scheme requests a remote client serves.
type countedShard struct {
	*remote.Shard
	calls atomic.Int64
}

func (s *countedShard) Scheme(des pooling.Design, n, m int, seed uint64) (*engine.Scheme, error) {
	s.calls.Add(1)
	return s.Shard.Scheme(des, n, m, seed)
}

// TestRingChangeLosesNothing: a worker joins and takes a registered
// spec's key. Before any decode, GET /v1/schemes/{id} names it as owner;
// re-POSTing the spec answers the same id without asking any shard for
// the scheme; the first decode installs the design on it once.
func TestRingChangeLosesNothing(t *testing.T) {
	const n, m, k = 300, 240, 5
	_, w0, _ := countingWorker(t)
	w1Cluster, w1, installs := countingWorker(t)
	w0Addr, w1Addr := w0.Listener.Addr().String(), w1.Listener.Addr().String()
	client := func(addr string) *countedShard {
		sh := &countedShard{Shard: remote.New(remote.Options{
			Addr: addr, ProbeInterval: 25 * time.Millisecond,
			RetryBackoff: 5 * time.Millisecond, Retries: 1,
		})}
		t.Cleanup(sh.Close)
		return sh
	}
	c0, c1 := client(w0Addr), client(w1Addr)
	cluster := engine.NewClusterOf(c0)
	srv := newServer(cluster, campaign.Config{})
	t.Cleanup(srv.campaigns.Close)
	fed := httptest.NewServer(srv.handler())
	t.Cleanup(fed.Close)

	req := schemeRequest{Design: "random-regular", N: n, M: m, Seed: seedJoinedBy(n, m, []string{w0Addr, w1Addr}, w1Addr)}
	var sch schemeEntry
	postJSON(t, fed.URL+"/v1/schemes", req, &sch)
	if sch.Owner != w0Addr || sch.Shard != 0 {
		t.Fatalf("before the join: owner %q shard %d, want %q and 0", sch.Owner, sch.Shard, w0Addr)
	}

	if err := cluster.AddShard(w1Addr, func() engine.Shard { return c1 }); err != nil {
		t.Fatal(err)
	}
	var got schemeEntry
	getJSON(t, fed.URL+"/v1/schemes/"+sch.ID, &got)
	if got.Owner != w1Addr || got.Shard != 1 {
		t.Fatalf("after the join: owner %q shard %d, want %q and 1", got.Owner, got.Shard, w1Addr)
	}

	calls := c0.calls.Load() + c1.calls.Load()
	var again schemeEntry
	if resp := postJSON(t, fed.URL+"/v1/schemes", req, &again); resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-POST: status %d", resp.StatusCode)
	}
	if again.ID != sch.ID || again.Owner != w1Addr {
		t.Fatalf("re-POST answered %s on %q, want %s on %q", again.ID, again.Owner, sch.ID, w1Addr)
	}
	if c := c0.calls.Load() + c1.calls.Load() - calls; c != 0 {
		t.Fatalf("re-POST asked the shards for the scheme %d times, want none", c)
	}

	ent, _ := srv.lookup(sch.ID)
	for seed := uint64(20); seed < 22; seed++ {
		sigma := bitvec.Random(n, k, rng.NewRandSeeded(seed))
		decodeHTTP(t, fed.URL, sch.ID, k, query.Execute(ent.scheme.G, sigma, query.Options{}).Y, sigma.Support())
	}
	if c := w1Cluster.Stats().Total.JobsCompleted; c != 2 {
		t.Fatalf("new owner completed %d jobs, want 2", c)
	}
	if got := installs(); got != 1 {
		t.Fatalf("new owner counted %v installs, want 1", got)
	}
}
