package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
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
	"pooleddata/internal/wal"
)

// uploadDesign posts g as a labio design CSV and returns the entry.
func uploadDesign(t testing.TB, url string, g *graph.Bipartite) schemeEntry {
	t.Helper()
	var csv bytes.Buffer
	if err := labio.WriteDesign(&csv, g); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/schemes", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	var ent schemeEntry
	if err := json.NewDecoder(resp.Body).Decode(&ent); err != nil {
		t.Fatal(err)
	}
	return ent
}

// getDesign fetches a scheme's design CSV, the labio.WriteDesign bytes.
func getDesign(t testing.TB, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/schemes/" + id + "/design")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("design of %s: status %d, err %v", id, resp.StatusCode, err)
	}
	return body
}

func schemeRecords(t testing.TB, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.scheme"))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		paths[i] = filepath.Base(p)
	}
	return paths
}

var registryCluster = engine.ClusterConfig{Shards: 2, Shard: engine.Config{CacheCapacity: 8, Workers: 1}}

// TestSchemeRegistryRoundTrip: the registry survives a restart through
// the WAL alone. Two parametric specs and an ad-hoc upload come back
// under the same ids with byte-identical designs; the parametric ones
// are rebuilt into the shard caches. Repeating a spec answers the same
// id from the registry, building nothing and leaving the caches
// untouched, and new ids continue the sequence.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s1 := startWALServer(t, dir, registryCluster)
	specs := []schemeRequest{
		{Design: "random-regular", N: 200, M: 120, Seed: 4, Gamma: 50},
		{Design: "bernoulli", N: 150, M: 80, Seed: 9},
	}
	want := map[string][]byte{}
	for _, req := range specs {
		var ent schemeEntry
		if resp := postJSON(t, s1.ts.URL+"/v1/schemes", req, &ent); resp.StatusCode != http.StatusCreated {
			t.Fatalf("register %+v: status %d", req, resp.StatusCode)
		}
		want[ent.ID] = getDesign(t, s1.ts.URL, ent.ID)
	}
	up, err := s1.cluster.Scheme(nil, 100, 60, 33)
	if err != nil {
		t.Fatal(err)
	}
	adhoc := uploadDesign(t, s1.ts.URL, up.G)
	want[adhoc.ID] = getDesign(t, s1.ts.URL, adhoc.ID)
	s1.shutdown()

	s2 := startWALServer(t, dir, registryCluster)
	defer s2.shutdown()
	s2.restore(t)
	for id, csv := range want {
		if got := getDesign(t, s2.ts.URL, id); !bytes.Equal(got, csv) {
			t.Fatalf("scheme %s: restored design differs from the registered one", id)
		}
	}
	if ent, ok := s2.srv.lookup(adhoc.ID); !ok || !ent.AdHoc || ent.ID != "s3" {
		t.Fatalf("ad-hoc entry after restart = %+v, %v", ent, ok)
	}
	cached := 0
	for i := 0; i < s2.cluster.Shards(); i++ {
		cached += s2.cluster.Shard(i).CachedSchemes()
	}
	if cached != 2 {
		t.Fatalf("shard caches hold %d schemes, want the 2 parametric ones", cached)
	}

	caches := func() (built, hits uint64) {
		for i := 0; i < s2.cluster.Shards(); i++ {
			st := s2.cluster.Shard(i).Stats()
			built, hits = built+st.SchemesBuilt, hits+st.CacheHits
		}
		return built, hits
	}
	built, hits := caches()
	var again schemeEntry
	postJSON(t, s2.ts.URL+"/v1/schemes", specs[0], &again)
	if again.ID != "s1" {
		t.Fatalf("repeated spec answered %q, want s1", again.ID)
	}
	if b, h := caches(); b != built || h != hits {
		t.Fatalf("repeat scheme request after restart built %d schemes and hit the caches %d times, want neither", b-built, h-hits)
	}
	var next schemeEntry
	postJSON(t, s2.ts.URL+"/v1/schemes", schemeRequest{N: 90, M: 40, Seed: 1}, &next)
	if next.ID != "s4" {
		t.Fatalf("first registration after restart got %q, want s4", next.ID)
	}
}

// TestSchemeRecordsMissingTornCorrupt: replay of absent and damaged
// scheme records. No records is a first boot. A torn record (its bytes
// run out) was never acknowledged: its file is deleted and boot goes
// on. A record whose design no longer builds is logged and skipped, and
// its id is not reused. A complete record that fails its checksum, and
// interior corruption, refuse boot, naming file and offset.
func TestSchemeRecordsMissingTornCorrupt(t *testing.T) {
	replay := func(dir string) (*walServer, string, error) {
		s := startWALServer(t, dir, registryCluster)
		t.Cleanup(s.shutdown)
		var log bytes.Buffer
		err := replaySchemes(s.srv, &log)
		return s, log.String(), err
	}
	writeRecord := func(dir string) string {
		s := startWALServer(t, dir, registryCluster)
		defer s.shutdown()
		var ent schemeEntry
		postJSON(t, s.ts.URL+"/v1/schemes", schemeRequest{N: 60, M: 30, Seed: 2}, &ent)
		return filepath.Join(dir, ent.ID+".scheme")
	}

	s, _, err := replay(t.TempDir())
	if err != nil {
		t.Fatalf("empty journal: %v", err)
	}
	if _, ok := s.srv.lookup("s1"); ok {
		t.Fatal("empty journal registered a scheme")
	}

	dir := t.TempDir()
	path := writeRecord(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if s, _, err = replay(dir); err != nil {
		t.Fatalf("torn record refused boot: %v", err)
	}
	if _, ok := s.srv.lookup("s1"); ok {
		t.Fatal("torn record registered a scheme")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("torn record not deleted: %v", err)
	}

	// A flipped payload byte in the only record: the record is complete,
	// and a scheme file was written whole and fsynced before its 201, so
	// this is no torn write. Boot is refused and the file kept.
	dir = t.TempDir()
	path = writeRecord(dir)
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	data[8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replay(dir)
	if err == nil || !strings.Contains(err.Error(), "s1.scheme") || !strings.Contains(err.Error(), "offset 5") {
		t.Fatalf("corrupt complete record: err = %v, want a refusal naming s1.scheme and offset 5", err)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, data) {
		t.Fatalf("corrupt complete record not left in place: %v", err)
	}

	// A flipped payload byte with a second record after it: the checksum
	// fails mid-file, which no crash produces.
	dir = t.TempDir()
	path = writeRecord(dir)
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	data = append(data, data[5:]...)
	data[8] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = replay(dir)
	if err == nil || !strings.Contains(err.Error(), "s1.scheme") || !strings.Contains(err.Error(), "offset 5") {
		t.Fatalf("interior corruption: err = %v, want a refusal naming s1.scheme and offset 5", err)
	}

	dir = t.TempDir()
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.PutScheme(wal.SchemeRecord{ID: "s1", Ref: `{"design":"gone","n":10,"m":5}`}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	s, log, err := replay(dir)
	if err != nil {
		t.Fatalf("unknown design refused boot: %v", err)
	}
	if !strings.Contains(log, "skipped scheme record s1") {
		t.Fatalf("unknown design not logged; log: %q", log)
	}
	var next schemeEntry
	postJSON(t, s.ts.URL+"/v1/schemes", schemeRequest{N: 60, M: 30, Seed: 2}, &next)
	if next.ID != "s2" {
		t.Fatalf("registration after a skipped record got %q, want s2", next.ID)
	}
}

// TestAdHocRecordThatDoesNotParseRefusesBoot: an ad-hoc scheme record
// passed its checksum, so a design in it that does not parse is no torn
// write, and skipping it would lose the upload for good. Boot is refused,
// naming the file and the parse error, and the file stays in place. A
// record written before the binary form's version 2 names version 1.
func TestAdHocRecordThatDoesNotParseRefusesBoot(t *testing.T) {
	v1, err := hex.DecodeString("70640107050301010101020103020103010201040101010103010202020301020103010105020102")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		design     []byte
	}{
		{"version 1", "version 1", v1},
		{"garbage", "bad magic", []byte("not a design")},
	} {
		dir := t.TempDir()
		j, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := wal.SchemeRecord{ID: "s1", Ref: `{"design":"upload","n":7,"m":5,"ad_hoc":true,"key":"adhoc|1"}`, Design: tc.design}
		if err := j.PutScheme(rec); err != nil {
			t.Fatal(err)
		}
		j.Close()
		path := filepath.Join(dir, "s1.scheme")
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := startWALServer(t, dir, registryCluster)
		err = replaySchemes(s.srv, io.Discard)
		_, registered := s.srv.lookup("s1")
		s.shutdown()
		if err == nil || !strings.Contains(err.Error(), "s1.scheme") || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want a refusal naming s1.scheme and %q", tc.name, err, tc.want)
		}
		if registered {
			t.Fatalf("%s: the record registered a scheme", tc.name)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s: record not left in place: %v", tc.name, err)
		}
	}
}

// TestAdHocCampaignSurvivesCrash: a campaign on an ad-hoc upload
// outlives an unclean stop. Two uploads share n and m, so only the
// design's key tells them apart; the campaign runs on the second. The
// server dies with every job wedged behind a blocked worker, and the
// successor must bring the upload back from its scheme record and
// re-run each job against it.
func TestAdHocCampaignSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.ClusterConfig{Shards: 1, Shard: engine.Config{CacheCapacity: 4, Workers: 1, QueueDepth: 16}}
	s1 := startWALServer(t, dir, cfg)
	const n, k, m, batch = 150, 3, 110, 6
	var target *graph.Bipartite
	var sch schemeEntry
	for _, seed := range []uint64{91, 92} {
		es, err := s1.cluster.Scheme(nil, n, m, seed)
		if err != nil {
			t.Fatal(err)
		}
		target, sch = es.G, uploadDesign(t, s1.ts.URL, es.G)
	}
	signals := make([]*bitvec.Vector, batch)
	ys := make([][]int64, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(700+b)))
		ys[b] = query.Execute(target, signals[b], query.Options{}).Y
	}

	ent, _ := s1.srv.lookup(sch.ID)
	release := make(chan struct{})
	wedge, err := s1.cluster.Submit(context.Background(), engine.Job{Scheme: ent.scheme, Y: ys[0], K: k, Dec: blockDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for s1.cluster.Shard(0).QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var created campaignCreated
	if resp := postJSON(t, s1.ts.URL+"/v1/campaigns", campaignRequest{Scheme: sch.ID, K: k, Batch: ys}, &created); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}

	// Die with the work in flight, as in TestWALRedispatchAfterCrash; no
	// step of the stop writes scheme state.
	s1.ts.Close()
	s1.srv.campaigns.Close()
	close(release)
	wedge.Wait(context.Background())
	s1.journal.Close()
	s1.cluster.Close()

	s2 := startWALServer(t, dir, cfg)
	defer s2.shutdown()
	s2.restore(t)
	p := pollDone(t, s2.ts.URL, created.ID, 15*time.Second)
	if p.State != campaign.Done || p.Completed != batch {
		t.Fatalf("recovered ad-hoc campaign = %+v", p)
	}
	for i, res := range p.Results {
		if !bitvec.FromIndices(n, res.Support).Equal(signals[i]) {
			t.Fatalf("job %d: support %v is not its planted signal", i, res.Support)
		}
	}
}

// TestSchemeEvictionSurvivesRestart: with -max-schemes 2 a third
// registration evicts s1 and deletes its record; after a restart s2 and
// s3 still name their designs and s1 stays gone.
func TestSchemeEvictionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	boot := func() *walServer {
		s := startWALServer(t, dir, registryCluster)
		s.srv.maxSchemes = 2
		return s
	}
	s1 := boot()
	designs := map[string][]byte{}
	for i := 1; i <= 3; i++ {
		var ent schemeEntry
		postJSON(t, s1.ts.URL+"/v1/schemes", schemeRequest{N: 80 + i, M: 40, Seed: uint64(i)}, &ent)
		if want := fmt.Sprintf("s%d", i); ent.ID != want {
			t.Fatalf("registration %d got %q, want %s", i, ent.ID, want)
		}
		designs[ent.ID] = getDesign(t, s1.ts.URL, ent.ID)
	}
	s1.shutdown()
	if recs := schemeRecords(t, dir); len(recs) != 2 {
		t.Fatalf("scheme records after eviction = %v, want s2 and s3", recs)
	}

	s2 := boot()
	defer s2.shutdown()
	s2.restore(t)
	for _, id := range []string{"s2", "s3"} {
		if !bytes.Equal(getDesign(t, s2.ts.URL, id), designs[id]) {
			t.Fatalf("%s names another design after restart", id)
		}
	}
	if resp := getJSON(t, s2.ts.URL+"/v1/schemes/s1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted s1 after restart: status %d, want 404", resp.StatusCode)
	}
	if recs := schemeRecords(t, dir); len(recs) != 2 {
		t.Fatalf("scheme records after restart = %v, want two", recs)
	}
}

// TestSchemeJournalFailureIs500: a registration whose record cannot be
// written answers 500 and registers nothing, for specs and uploads.
func TestSchemeJournalFailureIs500(t *testing.T) {
	dir := t.TempDir()
	s := startWALServer(t, dir, registryCluster)
	defer s.shutdown()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if resp := postJSON(t, s.ts.URL+"/v1/schemes", schemeRequest{N: 60, M: 30, Seed: 1}, nil); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("spec with a failing journal: status %d, want 500", resp.StatusCode)
	}
	es, err := s.cluster.Scheme(nil, 60, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := labio.WriteDesign(&csv, es.G); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.ts.URL+"/v1/schemes", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("upload with a failing journal: status %d, want 500", resp.StatusCode)
	}
	var st statsResponse
	getJSON(t, s.ts.URL+"/v1/stats", &st)
	if st.Schemes != 0 {
		t.Fatalf("failed registrations left %d registry entries", st.Schemes)
	}
}

// writeDesignFile writes g to path as a labio design CSV.
func writeDesignFile(t testing.TB, path string, g *graph.Bipartite) {
	t.Helper()
	var csv bytes.Buffer
	if err := labio.WriteDesign(&csv, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPreloadKeepsJournaledId: a -designs preload is journaled like an
// upload. On the next boot the journal brings it back under its id
// before the preloads run, so the same file answers that id, and so
// does an upload of the same CSV, while a newly listed file takes the
// next id.
func TestPreloadKeepsJournaledId(t *testing.T) {
	dir, files := t.TempDir(), t.TempDir()
	standing, added := filepath.Join(files, "standing.csv"), filepath.Join(files, "added.csv")
	for i, p := range []string{standing, added} {
		g, err := pooling.RandomRegular{}.Build(64, 32, pooling.BuildOptions{Seed: uint64(6 + i)})
		if err != nil {
			t.Fatal(err)
		}
		writeDesignFile(t, p, g)
	}
	s1 := startWALServer(t, dir, registryCluster)
	s1.restore(t, standing)
	var spec schemeEntry
	postJSON(t, s1.ts.URL+"/v1/schemes", schemeRequest{N: 70, M: 30, Seed: 5}, &spec)
	if spec.ID != "s2" {
		t.Fatalf("spec after one preload got %q, want s2", spec.ID)
	}
	s1.shutdown()
	if recs := schemeRecords(t, dir); len(recs) != 2 {
		t.Fatalf("scheme records = %v, want the preload's and the spec's", recs)
	}

	s2 := startWALServer(t, dir, registryCluster)
	defer s2.shutdown()
	var log bytes.Buffer
	if err := replaySchemes(s2.srv, &log); err != nil {
		t.Fatal(err)
	}
	if err := preloadDesigns(s2.srv, []string{standing, added}, &log); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"preloaded scheme s1 from " + standing, "preloaded scheme s3 from " + added} {
		if !strings.Contains(log.String(), want) {
			t.Fatalf("log lacks %q:\n%s", want, log.String())
		}
	}
	for id, p := range map[string]string{"s1": standing, "s3": added} {
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(getDesign(t, s2.ts.URL, id), want) {
			t.Fatalf("%s does not hold %s", id, p)
		}
	}
	ent, _ := s2.srv.lookup("s1")
	if up := uploadDesign(t, s2.ts.URL, ent.scheme.G); up.ID != "s1" {
		t.Fatalf("upload of the preloaded CSV got %q, want s1", up.ID)
	}
	if recs := schemeRecords(t, dir); len(recs) != 3 {
		t.Fatalf("scheme records = %v, want s1, s2 and s3", recs)
	}
}

// TestPreloadCampaignSurvivesRewrittenFile: a campaign on a -designs
// preload resumes against the design it ran on, not against what the
// file holds at the next boot. The server dies with every job wedged,
// and the file is rewritten with another design of the same n and m
// before the restart.
func TestPreloadCampaignSurvivesRewrittenFile(t *testing.T) {
	dir := t.TempDir()
	cfg := engine.ClusterConfig{Shards: 1, Shard: engine.Config{CacheCapacity: 4, Workers: 1, QueueDepth: 16}}
	const n, k, m, batch = 150, 3, 110, 6
	var designs [2]*graph.Bipartite
	for i := range designs {
		g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: uint64(91 + i)})
		if err != nil {
			t.Fatal(err)
		}
		designs[i] = g
	}
	path := filepath.Join(t.TempDir(), "standing.csv")
	writeDesignFile(t, path, designs[0])
	s1 := startWALServer(t, dir, cfg)
	s1.restore(t, path)
	ent, ok := s1.srv.lookup("s1")
	if !ok {
		t.Fatal("preload not registered as s1")
	}
	signals := make([]*bitvec.Vector, batch)
	ys := make([][]int64, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(700+b)))
		ys[b] = query.Execute(designs[0], signals[b], query.Options{}).Y
	}
	release := make(chan struct{})
	wedge, err := s1.cluster.Submit(context.Background(), engine.Job{Scheme: ent.scheme, Y: ys[0], K: k, Dec: blockDecoder{release}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for s1.cluster.Shard(0).QueueDepth() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	var created campaignCreated
	if resp := postJSON(t, s1.ts.URL+"/v1/campaigns", campaignRequest{Scheme: ent.ID, K: k, Batch: ys}, &created); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create campaign: status %d", resp.StatusCode)
	}
	s1.ts.Close()
	s1.srv.campaigns.Close()
	close(release)
	wedge.Wait(context.Background())
	s1.journal.Close()
	s1.cluster.Close()

	writeDesignFile(t, path, designs[1])
	s2 := startWALServer(t, dir, cfg)
	defer s2.shutdown()
	s2.restore(t, path)
	p := pollDone(t, s2.ts.URL, created.ID, 15*time.Second)
	if p.State != campaign.Done || p.Completed != batch {
		t.Fatalf("recovered preload campaign = %+v", p)
	}
	for i, res := range p.Results {
		if !bitvec.FromIndices(n, res.Support).Equal(signals[i]) {
			t.Fatalf("job %d: support %v is not its planted signal", i, res.Support)
		}
	}
}

// TestKeylessPreloadRefFails: a campaign journaled on a preload before
// preloads were journaled carries a ref of only the file, n and m. It
// resolves to nothing, not to what the file holds now, even with that
// file preloaded, and its error names the ref.
func TestKeylessPreloadRefFails(t *testing.T) {
	_, srv, _ := newTestServerWith(t, registryCluster)
	path := filepath.Join(t.TempDir(), "standing.csv")
	g, err := pooling.RandomRegular{}.Build(64, 32, pooling.BuildOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	writeDesignFile(t, path, g)
	if err := preloadDesigns(srv, []string{path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	ref := fmt.Sprintf(`{"design":%q,"n":64,"m":32}`, "file:"+path)
	if _, err := srv.resolveSchemeRef(ref); err == nil || !strings.Contains(err.Error(), "file:"+path) {
		t.Fatalf("keyless preload ref resolved: err %v", err)
	}
}
