package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/wal"
	"pooleddata/metrics"
)

// walServer boots a frontend journaling into dir, as main() would with
// -wal-dir. The caller shuts it down (possibly mid-campaign) and boots
// a successor against the same dir.
type walServer struct {
	ts      *httptest.Server
	srv     *server
	cluster *engine.Cluster
	journal *wal.WAL
	reg     *metrics.Registry
}

func startWALServer(t testing.TB, dir string, cfg engine.ClusterConfig) *walServer {
	t.Helper()
	cluster := engine.NewCluster(cfg)
	reg := metrics.NewRegistry()
	w, err := wal.Open(dir, wal.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cluster, campaign.Config{WAL: w})
	return &walServer{ts: httptest.NewServer(srv.handler()), srv: srv, cluster: cluster, journal: w, reg: reg}
}

// shutdown mirrors main()'s graceful exit order: stop serving, close the
// campaign store (which detaches journals first), then the WAL and
// cluster.
func (s *walServer) shutdown() {
	s.ts.Close()
	s.srv.campaigns.Close()
	s.journal.Close()
	s.cluster.Close()
}

// restore boots a fresh server from the WAL as main() does: the scheme
// records, then the -designs preloads, then the campaigns.
func (s *walServer) restore(t testing.TB, preloads ...string) {
	t.Helper()
	if err := replaySchemes(s.srv, testWriter{t}); err != nil {
		t.Fatalf("replay schemes: %v", err)
	}
	if err := preloadDesigns(s.srv, preloads, testWriter{t}); err != nil {
		t.Fatalf("preload: %v", err)
	}
	if err := restoreCampaigns(s.srv, s.journal, testWriter{t}); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

type testWriter struct{ t testing.TB }

func (w testWriter) Write(p []byte) (int, error) { w.t.Log(string(p)); return len(p), nil }

func pollDone(t testing.TB, url, id string, deadline time.Duration) campaign.Progress {
	t.Helper()
	var p campaign.Progress
	limit := time.Now().Add(deadline)
	for {
		getJSON(t, url+"/v1/campaigns/"+id+"?wait=100ms", &p)
		if p.Terminal() && p.Settled() == p.Total {
			return p
		}
		if time.Now().After(limit) {
			t.Fatalf("campaign %s did not finish: %+v", id, p)
		}
	}
}

func scrapeMetrics(t testing.TB, reg *metrics.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return rec.Body.String()
}

// TestWALRestartSSEResume is the durability acceptance path for finished
// campaigns: a gaussian campaign runs to completion under the WAL, the
// server restarts, and the recovered campaign is bit-identical — same
// results, same event sequence numbers — so an SSE client that consumed
// half the stream before the restart resumes with Last-Event-ID and
// receives exactly the other half, no duplicates, no gaps.
func TestWALRestartSSEResume(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.ClusterConfig{Shards: 2, Shard: engine.Config{CacheCapacity: 4, Workers: 2, QueueDepth: 64}}
	s1 := startWALServer(t, dir, cfg)
	const n, k, m, batch = 300, 5, 240, 8
	sch, signals, ys := measuredBatch(t, s1.ts.URL, s1.cluster, n, k, m, batch, 71)

	nm := &noise.Model{Kind: noise.Gaussian, Sigma: 0.2, Seed: 9}
	var created campaignCreated
	resp := postJSON(t, s1.ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys, Noise: nm}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}
	before := pollDone(t, s1.ts.URL, created.ID, 15*time.Second)
	if before.State != campaign.Done || before.Completed != batch {
		t.Fatalf("pre-restart progress = %+v", before)
	}

	// Consume the first half of the stream, noting the resume cursor.
	stream := streamEvents(t, s1.ts.URL, created.ID, 0)
	firstHalf, _ := readSSE(t, stream.Body, batch/2)
	stream.Body.Close()
	if len(firstHalf) != batch/2 {
		t.Fatalf("read %d events pre-restart, want %d", len(firstHalf), batch/2)
	}
	cursor := firstHalf[len(firstHalf)-1].id

	s1.shutdown()

	// Restart against the same WAL dir without its scheme records, so the
	// registry starts empty: the parametric ref in the campaign's own log
	// is what brings the scheme back.
	records, err := filepath.Glob(filepath.Join(dir, "*.scheme"))
	if err != nil || len(records) != 1 {
		t.Fatalf("scheme records = %v (%v), want one", records, err)
	}
	if err := os.Remove(records[0]); err != nil {
		t.Fatal(err)
	}
	s2 := startWALServer(t, dir, cfg)
	defer s2.shutdown()
	s2.restore(t)

	after := pollDone(t, s2.ts.URL, created.ID, 5*time.Second)
	if after.State != campaign.Done || after.Completed != batch {
		t.Fatalf("post-restart progress = %+v", after)
	}
	if len(after.Results) != len(before.Results) {
		t.Fatalf("results: %d post-restart, %d pre", len(after.Results), len(before.Results))
	}
	for i, res := range after.Results {
		if !bitvec.FromIndices(n, res.Support).Equal(bitvec.FromIndices(n, before.Results[i].Support)) {
			t.Fatalf("result %d support changed across restart", i)
		}
		if !bitvec.FromIndices(n, res.Support).Equal(signals[i]) {
			t.Fatalf("result %d did not recover its signal", i)
		}
		if res.TraceID != before.Results[i].TraceID {
			t.Fatalf("result %d trace id changed across restart", i)
		}
	}

	// Resume the half-consumed stream: exactly the unseen events arrive,
	// in order, ending in the terminal done event.
	stream = streamEvents(t, s2.ts.URL, created.ID, cursor)
	rest, _ := readSSE(t, stream.Body, batch+1)
	stream.Body.Close()
	want := int64(batch+1) - cursor // remaining results + done
	if int64(len(rest)) != want {
		t.Fatalf("resumed stream delivered %d events, want %d", len(rest), want)
	}
	for i, ev := range rest {
		if ev.id != cursor+int64(i)+1 {
			t.Fatalf("resumed event %d has id %d, want %d", i, ev.id, cursor+int64(i)+1)
		}
	}
	if rest[len(rest)-1].event != "done" {
		t.Fatalf("resumed stream ended with %q, want done", rest[len(rest)-1].event)
	}
	var done struct {
		State     string `json:"state"`
		Completed int    `json:"completed"`
	}
	if err := json.Unmarshal([]byte(rest[len(rest)-1].data), &done); err != nil {
		t.Fatal(err)
	}
	if done.State != string(campaign.Done) || done.Completed != batch {
		t.Fatalf("done event = %+v", done)
	}

	if exp := scrapeMetrics(t, s2.reg); !containsSeries(exp, `pooled_wal_recovered_campaigns_total{state="done"} 1`) {
		t.Fatalf("recovered-campaigns metric missing from exposition:\n%s", exp)
	}
}

func containsSeries(exposition, series string) bool {
	for _, line := range splitLines(exposition) {
		if line == series {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// TestWALRedispatchAfterCrash covers the unfinished-campaign path: the
// first server dies with the campaign's jobs still queued (wedged behind
// a blocked worker), so its log holds the spec and no settlements. The
// successor rebuilds the scheme from the journaled parametric ref,
// re-dispatches every job, and the results match the ground-truth
// signals — with the full event stream delivered exactly once.
func TestWALRedispatchAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.ClusterConfig{Shards: 1, Shard: engine.Config{CacheCapacity: 4, Workers: 1, QueueDepth: 16}}
	s1 := startWALServer(t, dir, cfg)
	const n, k, m, batch = 150, 3, 110, 6
	sch, signals, ys := measuredBatch(t, s1.ts.URL, s1.cluster, n, k, m, batch, 81)

	// Wedge the single worker so the campaign's jobs never settle.
	es, err := s1.cluster.Scheme(nil, n, m, 81)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	wedge, err := s1.cluster.Submit(context.Background(), engine.Job{Scheme: es, Y: ys[0], K: k, Dec: blockDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for s1.cluster.Shard(0).QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	var created campaignCreated
	resp := postJSON(t, s1.ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, &created)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}

	// Die with the work in flight. Graceful close detaches the journal
	// before the pending jobs settle with store-closed errors, so the
	// log stays unsealed — exactly what a SIGKILL leaves behind.
	s1.ts.Close()
	s1.srv.campaigns.Close()
	close(release)
	wedge.Wait(context.Background())
	s1.journal.Close()
	s1.cluster.Close()

	s2 := startWALServer(t, dir, cfg)
	defer s2.shutdown()
	s2.restore(t)

	if exp := scrapeMetrics(t, s2.reg); !containsSeries(exp, `pooled_wal_recovered_campaigns_total{state="running"} 1`) {
		t.Fatalf("recovered-campaigns metric missing from exposition:\n%s", exp)
	}

	p := pollDone(t, s2.ts.URL, created.ID, 15*time.Second)
	if p.State != campaign.Done || p.Completed != batch {
		t.Fatalf("re-dispatched campaign = %+v", p)
	}
	for i, res := range p.Results {
		if !bitvec.FromIndices(n, res.Support).Equal(signals[i]) {
			t.Fatalf("re-dispatched result %d did not recover its signal", i)
		}
	}

	// Exactly-once over the full stream: batch result events with
	// distinct job indices, then the terminal event.
	stream := streamEvents(t, s2.ts.URL, created.ID, 0)
	evs, _ := readSSE(t, stream.Body, batch+1)
	stream.Body.Close()
	if len(evs) != batch+1 {
		t.Fatalf("stream delivered %d events, want %d", len(evs), batch+1)
	}
	seen := map[int]bool{}
	for i, ev := range evs[:batch] {
		if ev.id != int64(i)+1 || ev.event != "result" {
			t.Fatalf("event %d = {id:%d event:%q}", i, ev.id, ev.event)
		}
		var res struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal([]byte(ev.data), &res); err != nil {
			t.Fatal(err)
		}
		if seen[res.Index] {
			t.Fatalf("job %d delivered twice", res.Index)
		}
		seen[res.Index] = true
	}
	if evs[batch].event != "done" {
		t.Fatalf("final event = %q, want done", evs[batch].event)
	}

	// A second recovery of the (now sealed) log reports the campaign
	// done: the successor sealed the journal it inherited.
	s2.journal.Close()
	w3, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	logs, err := w3.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 || logs[0].Seal == nil || logs[0].Seal.Completed != batch {
		t.Fatalf("post-completion recovery = %+v", logs)
	}
}
