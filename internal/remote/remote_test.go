package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

// newWorker starts an in-process worker: a local engine cluster behind
// the shard API on a real loopback listener.
func newWorker(t testing.TB, shards, workers, queue int, opts ServerOptions) (*engine.Cluster, *httptest.Server) {
	t.Helper()
	c := engine.NewCluster(engine.ClusterConfig{
		Shards: shards,
		Shard:  engine.Config{CacheCapacity: 8, Workers: workers, QueueDepth: queue},
	})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(NewServer(c, opts).Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// fastOptions are client options tuned for tests: quick probes and
// short retry backoffs so failure paths resolve in milliseconds.
func fastOptions(addr string) Options {
	return Options{
		Addr:           addr,
		ProbeInterval:  25 * time.Millisecond,
		RetryBackoff:   5 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
	}
}

func newShard(t testing.TB, ts *httptest.Server, opt func(*Options)) *Shard {
	t.Helper()
	o := fastOptions(ts.Listener.Addr().String())
	if opt != nil {
		opt(&o)
	}
	sh := New(o)
	t.Cleanup(sh.Close)
	return sh
}

func eventually(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteDecodeMatchesLocal is the federation contract: the same
// (design, n, m, seed) and counts decode bit-identically whether the
// shard is a local engine or a worker across the wire, for exact and
// noisy jobs (including the server-side noise-policy decoder pick).
func TestRemoteDecodeMatchesLocal(t *testing.T) {
	const n, m, k = 400, 160, 6
	const seed = 7

	local := engine.New(engine.Config{})
	defer local.Close()
	ls, err := local.Scheme(nil, n, m, seed)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newWorker(t, 2, 2, 0, ServerOptions{})
	sh := newShard(t, ts, nil)
	cluster := engine.NewClusterOf(sh)
	rs, err := cluster.Scheme(nil, n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Home() != 0 {
		t.Fatalf("remote scheme home = %d, want 0", rs.Home())
	}

	sigma := bitvec.Random(n, k, rng.NewRandSeeded(21))
	y := query.Execute(ls.G, sigma, query.Options{}).Y

	want, err := local.Decode(context.Background(), engine.Job{Scheme: ls, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cluster.Decode(context.Background(), engine.Job{Scheme: rs, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Support, want.Support) {
		t.Fatalf("remote support %v != local %v", got.Support, want.Support)
	}
	if got.Decoder != want.Decoder {
		t.Fatalf("remote decoder %q != local %q", got.Decoder, want.Decoder)
	}
	if got.Stats.Residual != want.Stats.Residual || got.Stats.Consistent != want.Stats.Consistent {
		t.Fatalf("remote stats (res=%d cons=%v) != local (res=%d cons=%v)",
			got.Stats.Residual, got.Stats.Consistent, want.Stats.Residual, want.Stats.Consistent)
	}

	// Noisy path: the model travels in colon form and the worker's noise
	// policy must make the same pick the local one does.
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 1.5, Seed: 5}
	yn := local.MeasureBatch(ls, []*bitvec.Vector{sigma}, nm)[0]
	wantN, err := local.Decode(context.Background(), engine.Job{Scheme: ls, Y: yn, K: k, Noise: nm})
	if err != nil {
		t.Fatal(err)
	}
	gotN, err := cluster.Decode(context.Background(), engine.Job{Scheme: rs, Y: yn, K: k, Noise: nm})
	if err != nil {
		t.Fatal(err)
	}
	if gotN.Decoder != wantN.Decoder {
		t.Fatalf("noisy decoder %q != local %q", gotN.Decoder, wantN.Decoder)
	}
	if !reflect.DeepEqual(gotN.Support, wantN.Support) {
		t.Fatalf("noisy remote support %v != local %v", gotN.Support, wantN.Support)
	}

	// An empty support crosses the wire as no support at all; the result
	// must still be the local engine's empty, non-nil slice.
	zero := make([]int64, m)
	want0, err := local.Decode(context.Background(), engine.Job{Scheme: ls, Y: zero, K: 0})
	if err != nil {
		t.Fatal(err)
	}
	got0, err := cluster.Decode(context.Background(), engine.Job{Scheme: rs, Y: zero, K: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got0.Support, want0.Support) {
		t.Fatalf("k=0 remote support %#v != local %#v", got0.Support, want0.Support)
	}
}

// TestRemoteMeasureBatchMatchesEngine checks the frontend-side
// measurement path of a remote shard against the engine's.
func TestRemoteMeasureBatchMatchesEngine(t *testing.T) {
	const n, m, k, batch = 300, 120, 5, 4
	local := engine.New(engine.Config{})
	defer local.Close()
	ls, err := local.Scheme(nil, n, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newWorker(t, 1, 1, 0, ServerOptions{})
	sh := newShard(t, ts, nil)
	cluster := engine.NewClusterOf(sh)
	rs, err := cluster.Scheme(nil, n, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([]*bitvec.Vector, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(40+b)))
	}
	nm := noise.Model{Kind: noise.Gaussian, Sigma: 0.8, Seed: 9}
	want := local.MeasureBatch(ls, signals, nm)
	got := cluster.MeasureBatch(rs, signals, nm)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("remote MeasureBatch differs from engine MeasureBatch")
	}
}

// TestRemoteReinstallAfterEviction drives the 404 recovery path: a
// worker whose scheme registry holds one entry keeps evicting, and the
// client re-installs transparently on the next decode.
func TestRemoteReinstallAfterEviction(t *testing.T) {
	const n, m, k = 300, 120, 5
	_, ts := newWorker(t, 1, 1, 0, ServerOptions{MaxSchemes: 1})
	sh := newShard(t, ts, nil)
	cluster := engine.NewClusterOf(sh)

	sa, err := cluster.Scheme(nil, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := cluster.Scheme(nil, n, m, 2)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(s *engine.Scheme, seed uint64) {
		t.Helper()
		sigma := bitvec.Random(n, k, rng.NewRandSeeded(seed))
		y := query.Execute(s.G, sigma, query.Options{}).Y
		res, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: k})
		if err != nil {
			t.Fatalf("decode after eviction: %v", err)
		}
		if !reflect.DeepEqual(res.Support, sigma.Support()) {
			t.Fatalf("support %v, want %v", res.Support, sigma.Support())
		}
	}
	decode(sa, 31)
	decode(sb, 32) // evicts sa on the worker
	decode(sa, 33) // 404 → re-install → success
	decode(sb, 34)
}

// fakeWorker is a scripted worker for failure-path tests: health and
// installs succeed, the decode-batch route is pluggable.
func fakeWorker(t *testing.T, decode http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /shard/v1/health", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, healthResponse{OK: true, Shards: 1, QueueCapacity: 4, Workers: 1})
	})
	mux.HandleFunc("PUT /shard/v1/schemes/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST "+decodeBatchPath, decode)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// answerOK answers a request frame with one OK result, an empty
// support, per job.
func answerOK(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	jobs, err := parseBatchRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse batch frame: %v", err)
		return
	}
	w.Header().Set("Content-Type", batchMediaType)
	w.Write(appendBatchResponse(nil, make([]batchResult, len(jobs))))
}

// TestWorkerErrorRetriesThenFails: a worker that answers every frame
// with 503 gets the job's frame Retries+1 times, after which the job
// fails wrapping ErrWorkerUnavailable. The worker answered, so the
// shard stays healthy.
func TestWorkerErrorRetriesThenFails(t *testing.T) {
	var frames atomic.Int64
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		frames.Add(1)
		writeError(w, http.StatusServiceUnavailable, "worker draining")
	})
	const retries = 2
	sh := newShard(t, ts, func(o *Options) { o.Retries = retries })
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, 200, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	fut, err := cluster.Offer(context.Background(), engine.Job{Scheme: s, Y: make([]int64, 80), K: 0})
	if err != nil {
		t.Fatalf("offer: %v", err)
	}
	_, err = fut.Wait(context.Background())
	if !errors.Is(err, ErrWorkerUnavailable) {
		t.Fatalf("err = %v, want wrapping ErrWorkerUnavailable", err)
	}
	if !strings.Contains(err.Error(), "worker draining") {
		t.Fatalf("err = %v, want the worker's reason", err)
	}
	if got := frames.Load(); got != retries+1 {
		t.Fatalf("worker received %d frames, want %d", got, retries+1)
	}
	if !sh.Healthy() {
		t.Fatal("a worker that answers is alive, not unhealthy")
	}
}

// TestRefusedFrameFailsLoudly: a worker that answers the decode-batch
// route with 404 (one without the route, or a version skew) fails every
// job with its status and reason at once: no frame is retried, and the
// shard stays healthy.
func TestRefusedFrameFailsLoudly(t *testing.T) {
	var frames, jobsSeen atomic.Int64
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		jobs, err := parseBatchRequest(body)
		if err != nil {
			t.Errorf("client sent a malformed frame: %v", err)
		}
		frames.Add(1)
		jobsSeen.Add(int64(len(jobs)))
		writeError(w, http.StatusNotFound, "no such route")
	})
	sh := newShard(t, ts, func(o *Options) { o.Retries = 3 })
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, 200, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 4
	futs := make([]*engine.Future, jobs)
	for i := range futs {
		if futs[i], err = cluster.Submit(context.Background(), engine.Job{Scheme: s, Y: make([]int64, 80), K: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i, fut := range futs {
		_, err := fut.Wait(context.Background())
		if err == nil || !strings.Contains(err.Error(), "status 404") || !strings.Contains(err.Error(), "no such route") {
			t.Fatalf("job %d err = %v, want the worker's status and reason", i, err)
		}
		if errors.Is(err, ErrWorkerUnavailable) {
			t.Fatalf("job %d err = %v: a refused frame is not an unavailable worker", i, err)
		}
	}
	// The jobs may have shared frames or not, but each rode exactly one.
	if got := jobsSeen.Load(); got != jobs {
		t.Fatalf("worker saw %d jobs in %d frames, want each of %d jobs once", got, frames.Load(), jobs)
	}
	if !sh.Healthy() {
		t.Fatal("a worker that refuses a frame is alive, not unhealthy")
	}
}

// TestClientQueueBackpressure: with one sender stuck in a slow request
// and a one-slot client queue, Offer returns ErrSaturated — the same
// cooperative backpressure a full local shard queue produces.
func TestClientQueueBackpressure(t *testing.T) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		answerOK(w, r)
	})
	defer close(release)
	sh := newShard(t, ts, func(o *Options) { o.Senders = 1; o.QueueDepth = 1 })
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, 200, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	job := engine.Job{Scheme: s, Y: make([]int64, 80), K: 0}

	fut1, err := cluster.Offer(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // sender is now blocked inside the request
	fut2, err := cluster.Offer(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.Offer(context.Background(), job); !errors.Is(err, engine.ErrSaturated) {
		t.Fatalf("third offer err = %v, want ErrSaturated", err)
	}
	if !sh.Saturated() {
		t.Fatal("full client queue must report Saturated")
	}
	release <- struct{}{}
	release <- struct{}{}
	for _, fut := range []*engine.Future{fut1, fut2} {
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatalf("wait: %v", err)
		}
	}
}

// gateDecoder signals entered when a decode starts and parks until
// release is closed; it wedges a local shard's only decode worker.
type gateDecoder struct {
	entered chan<- struct{}
	release <-chan struct{}
}

func (gateDecoder) Name() string { return "gate" }

func (d gateDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	d.entered <- struct{}{}
	<-d.release
	return bitvec.New(g.N()), nil
}

// TestAdmissionParity runs one admission script against a local engine
// and a remote client, each with a depth-1 queue whose only drain
// goroutine is held by the first job (a decoder, or a worker, that
// blocks until released): a second job fills the queue, TrySubmit and
// Offer are refused, and the caller notes two rejections of its own.
// Both shards count the same submissions and rejections, and both
// refuse a submit after Close with ErrClosed.
func TestAdmissionParity(t *testing.T) {
	script := func(t *testing.T, sh engine.Shard, entered <-chan struct{}, release chan<- struct{}, dec decoder.Decoder) engine.Stats {
		t.Helper()
		ctx := context.Background()
		s, err := sh.Scheme(nil, 200, 80, 1)
		if err != nil {
			t.Fatal(err)
		}
		job := engine.Job{Scheme: s, Y: make([]int64, 80), K: 0}
		first := job
		first.Dec = dec
		fut1, err := sh.Submit(ctx, first)
		if err != nil {
			t.Fatal(err)
		}
		<-entered // the only drain goroutine holds the first job
		fut2, err := sh.Offer(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.TrySubmit(ctx, job); !errors.Is(err, engine.ErrSaturated) {
			t.Fatalf("TrySubmit on a full queue: err = %v, want ErrSaturated", err)
		}
		if _, err := sh.Offer(ctx, job); !errors.Is(err, engine.ErrSaturated) {
			t.Fatalf("Offer on a full queue: err = %v, want ErrSaturated", err)
		}
		sh.NoteRejected(2)
		close(release)
		for _, fut := range []*engine.Future{fut1, fut2} {
			if _, err := fut.Wait(ctx); err != nil {
				t.Fatal(err)
			}
		}
		sh.Close()
		if _, err := sh.Submit(ctx, job); !errors.Is(err, engine.ErrClosed) {
			t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
		}
		return sh.Stats()
	}

	entered, release := make(chan struct{}, 4), make(chan struct{})
	local := script(t, engine.New(engine.Config{Workers: 1, QueueDepth: 1}), entered, release, gateDecoder{entered, release})

	entered, release = make(chan struct{}, 4), make(chan struct{})
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		answerOK(w, r)
	})
	sh := newShard(t, ts, func(o *Options) { o.Senders = 1; o.QueueDepth = 1 })
	fed := script(t, sh, entered, release, nil)

	if local.JobsSubmitted != 2 || local.JobsRejected != 3 {
		t.Fatalf("local shard: submitted=%d rejected=%d, want 2/3", local.JobsSubmitted, local.JobsRejected)
	}
	if fed.JobsSubmitted != local.JobsSubmitted || fed.JobsRejected != local.JobsRejected {
		t.Fatalf("remote shard: submitted=%d rejected=%d, want the local shard's %d/%d",
			fed.JobsSubmitted, fed.JobsRejected, local.JobsSubmitted, local.JobsRejected)
	}
}

// TestRemoteCancellation: canceling the job context settles queued jobs
// as canceled without waiting on the worker.
func TestRemoteCancellation(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 4)
	ts := fakeWorker(t, func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		answerOK(w, r)
	})
	defer close(release)
	sh := newShard(t, ts, func(o *Options) { o.Senders = 1; o.QueueDepth = 4 })
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, 200, 80, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := engine.Job{Scheme: s, Y: make([]int64, 80), K: 0}
	futBlocked, err := cluster.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	futQueued, err := cluster.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := futQueued.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued job err = %v, want context.Canceled", err)
	}
	release <- struct{}{}
	// The in-flight job's request context died with the cancel; either
	// outcome (canceled or a late success) must settle the future.
	if _, err := futBlocked.Wait(context.Background()); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight job err = %v", err)
	}
}

// TestDefaultClientBurst: 64 jobs submitted at once through a client
// with default options all settle without error, against a worker whose
// decode queue holds 4. The worker admits each frame whole and paces it
// through its decoder instead of refusing what does not fit.
func TestDefaultClientBurst(t *testing.T) {
	const n, m, k, burst = 300, 120, 5, 64
	quiet := ServerOptions{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	_, ts := newWorker(t, 1, 1, 0, quiet)
	sh := New(Options{Addr: ts.Listener.Addr().String()})
	t.Cleanup(sh.Close)
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	signals := make([]*bitvec.Vector, burst)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(100+b)))
	}
	ys := cluster.MeasureBatch(s, signals, noise.Model{})
	futs := make([]*engine.Future, burst)
	for b := range futs {
		if futs[b], err = cluster.Submit(context.Background(), engine.Job{Scheme: s, Y: ys[b], K: k}); err != nil {
			t.Fatalf("submit %d: %v", b, err)
		}
	}
	for b, fut := range futs {
		if _, err := fut.Wait(context.Background()); err != nil {
			t.Fatalf("job %d of the burst: %v", b, err)
		}
	}
}

// TestRemoteHammer drives two in-process workers through the full
// campaign stack — tenants, weights, noise models, stats polling —
// under -race.
func TestRemoteHammer(t *testing.T) {
	const n, m, k, batch = 300, 240, 5, 12
	w0, ts0 := newWorker(t, 2, 2, 64, ServerOptions{})
	w1, ts1 := newWorker(t, 2, 2, 64, ServerOptions{})
	_ = w0
	_ = w1
	sh0 := newShard(t, ts0, nil)
	sh1 := newShard(t, ts1, nil)
	cluster := engine.NewClusterOf(sh0, sh1)
	store := campaign.NewStore(cluster, campaign.Config{
		TenantWeights: map[string]int{"heavy": 3},
	})
	defer store.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // stats pollers race against dispatch
		defer wg.Done()
		for !stop.Load() {
			cluster.Stats()
			store.Tenants()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	tenants := []string{"heavy", "light"}
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func(c int) {
			defer cwg.Done()
			seed := uint64(10 + c)
			s, err := cluster.Scheme(nil, n, m, seed)
			if err != nil {
				t.Error(err)
				return
			}
			signals := make([]*bitvec.Vector, batch)
			for b := range signals {
				signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(seed*100+uint64(b)))
			}
			nm := noise.Model{}
			if c%2 == 1 {
				nm = noise.Model{Kind: noise.Gaussian, Sigma: 0.5, Seed: seed}
			}
			ys := cluster.MeasureBatch(s, signals, nm)
			cp, err := store.Create(campaign.Request{
				Scheme: s, Batch: ys, K: k, Tenant: tenants[c%2], Noise: nm,
			})
			if err != nil {
				t.Errorf("create campaign %d: %v", c, err)
				return
			}
			deadline := time.Now().Add(30 * time.Second)
			for {
				p := cp.Wait(context.Background(), 50*time.Millisecond)
				if p.Terminal() && p.Settled() == p.Total {
					if p.Failed != 0 || p.Canceled != 0 {
						t.Errorf("campaign %d: %+v", c, p)
					}
					return
				}
				if time.Now().After(deadline) {
					t.Errorf("campaign %d did not finish: %+v", c, cp.Progress())
					return
				}
			}
		}(c)
	}
	cwg.Wait()
	stop.Store(true)
	wg.Wait()

	// Decodes must have landed on the workers, not locally. Each client
	// records a job from its result frame before settling it, so the
	// counts are current once the campaigns are done; the poll is slack.
	eventually(t, 5*time.Second, func() bool {
		return sh0.Stats().JobsCompleted+sh1.Stats().JobsCompleted >= 4*batch
	}, "workers did not report the campaigns' decode jobs")
}

// TestSpecIDEscaping: spec ids embed design parameter strings; they
// must survive the URL path round-trip.
func TestSpecIDEscaping(t *testing.T) {
	_, ts := newWorker(t, 1, 1, 0, ServerOptions{})
	sh := newShard(t, ts, nil)
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(pooling.RandomRegular{Gamma: 9}, 200, 80, 3)
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(200, 4, rng.NewRandSeeded(2))
	y := query.Execute(s.G, sigma, query.Options{}).Y
	if _, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: 4}); err != nil {
		t.Fatalf("decode with parameterized design: %v", err)
	}
}

// TestWorkerStatsRoundTrip: a job decoded on the worker surfaces in the
// client's Stats, recorded from the result frame that carried it back,
// decode-latency histogram included.
func TestWorkerStatsRoundTrip(t *testing.T) {
	const n, m, k = 300, 120, 5
	_, ts := newWorker(t, 1, 1, 0, ServerOptions{})
	sh := newShard(t, ts, nil)
	cluster := engine.NewClusterOf(sh)
	s, err := cluster.Scheme(nil, n, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(8))
	y := query.Execute(s.G, sigma, query.Options{}).Y
	if _, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: k}); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.JobsCompleted != 1 || st.JobsSubmitted != 1 {
		t.Fatalf("stats = %+v, want 1 submitted/completed", st)
	}
	if len(st.DecodeLatency) == 0 {
		t.Fatal("per-decoder latency histograms did not cross the wire")
	}
	var buf []byte
	if buf, err = json.Marshal(cluster.Stats()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf) {
		t.Fatal("cluster stats not valid JSON")
	}
}

// TestInstallWantsDesignFrame: the install route takes only a design's
// binary form. A labio CSV body answers 415 rather than being guessed
// at, a garbled form 400, and a valid form installs the scheme placed
// and routed under its install id.
func TestInstallWantsDesignFrame(t *testing.T) {
	c := engine.NewCluster(engine.ClusterConfig{Shards: 2, Shard: engine.Config{Workers: 1}})
	t.Cleanup(c.Close)
	srv := NewServer(c, ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	g, err := pooling.RandomRegular{}.Build(60, 20, pooling.BuildOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := labio.WriteDesign(&csv, g); err != nil {
		t.Fatal(err)
	}
	frame := g.AppendBinary(nil)
	const id = "random-regular{Gamma:0}|60|20|4"
	put := func(contentType string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, ts.URL+schemePathPrefix+url.PathEscape(id), bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tc := range []struct {
		contentType string
		body        []byte
		want        int
	}{
		{"text/csv", csv.Bytes(), http.StatusUnsupportedMediaType},
		{"", frame, http.StatusUnsupportedMediaType},
		{batchMediaType, frame, http.StatusUnsupportedMediaType},
		{designMediaType, csv.Bytes(), http.StatusBadRequest},
		{designMediaType, frame[:len(frame)-1], http.StatusBadRequest},
		{designMediaType, frame, http.StatusNoContent},
	} {
		if got := put(tc.contentType, tc.body); got != tc.want {
			t.Fatalf("install as %q (%d bytes): status %d, want %d", tc.contentType, len(tc.body), got, tc.want)
		}
	}
	es, ok := srv.lookup(id)
	if !ok {
		t.Fatal("valid frame did not install")
	}
	if es.RouteKey() != id || engine.GraphKey(es.G) != engine.GraphKey(g) {
		t.Fatalf("installed scheme routes by %q (want %q) or changed its graph", es.RouteKey(), id)
	}
	if owner := c.Owner(es); owner != c.Shard(es.Home()) {
		t.Fatal("installed scheme was not placed on the shard its install id routes to")
	}
}

// TestCachedSchemesCountsInstalls: installed designs never enter the
// worker's engine caches, so its health reports its install table. After
// one install and a probe, the client reads one resident scheme.
func TestCachedSchemesCountsInstalls(t *testing.T) {
	_, ts := newWorker(t, 2, 1, 0, ServerOptions{})
	sh := newShard(t, ts, nil)
	spec := engine.SpecFor(pooling.RandomRegular{}, 60, 20, 4)
	g, err := pooling.RandomRegular{}.Build(60, 20, pooling.BuildOptions{Seed: spec.Seed})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, sh.Healthy, "worker never probed healthy")
	if got := sh.CachedSchemes(); got != 0 {
		t.Fatalf("CachedSchemes before any install = %d", got)
	}
	st := &schemeState{id: spec.Key(), scheme: engine.NewSchemeAt(spec, spec.Key(), g, 0)}
	if err := sh.ensure(context.Background(), st); err != nil {
		t.Fatal(err)
	}
	eventually(t, 2*time.Second, func() bool { return sh.CachedSchemes() == 1 }, "CachedSchemes never read 1 after an install")
}

// TestKeylessSchemeRefused: a scheme with no key (a standalone engine's
// wrap of a graph under "") cannot be named to the worker, so a remote
// shard refuses its job at submit with an error naming the cause.
func TestKeylessSchemeRefused(t *testing.T) {
	_, ts := newWorker(t, 1, 1, 0, ServerOptions{})
	sh := newShard(t, ts, nil)
	g, err := pooling.RandomRegular{}.Build(60, 20, pooling.BuildOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	local := engine.New(engine.Config{Workers: 1})
	defer local.Close()
	job := engine.Job{Scheme: local.SchemeFromGraph(g, ""), Y: make([]int64, 20), K: 0}
	if _, err := sh.Submit(context.Background(), job); !errors.Is(err, errNoKey) || !strings.Contains(err.Error(), "no key") {
		t.Fatalf("keyless scheme: err = %v, want one naming the missing key", err)
	}
}
