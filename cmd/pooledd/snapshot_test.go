package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/labio"
)

func snapCluster(t *testing.T) *engine.Cluster {
	t.Helper()
	c := engine.NewCluster(engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 8, Workers: 1},
	})
	t.Cleanup(c.Close)
	return c
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")

	// First life: register two parametric schemes and one ad-hoc upload
	// (persisted as a labio CSV next to the spec file), and write the
	// snapshot.
	c1 := snapCluster(t)
	srv1 := newServer(c1, campaign.Config{})
	t.Cleanup(srv1.campaigns.Close)
	ts1 := httptest.NewServer(srv1.handler())
	defer ts1.Close()

	var a, b schemeEntry
	postJSON(t, ts1.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: 200, M: 120, Seed: 4, Gamma: 50}, &a)
	postJSON(t, ts1.URL+"/v1/schemes", schemeRequest{Design: "bernoulli", N: 150, M: 80, Seed: 9}, &b)

	esUp, err := c1.Scheme(nil, 100, 60, 33)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := labio.WriteDesign(&csv, esUp.G); err != nil {
		t.Fatal(err)
	}
	adhoc := srv1.register(c1.SchemeFromGraph(esUp.G, engine.GraphKey(esUp.G)), "uploaded", 100, 60, 0, engine.DesignParams{}, true)
	_ = adhoc

	if err := writeSnapshot(srv1, path); err != nil {
		t.Fatal(err)
	}

	// Second life: a fresh cluster rebuilds the snapshot's schemes into
	// its caches and the registry.
	c2 := snapCluster(t)
	srv2 := newServer(c2, campaign.Config{})
	t.Cleanup(srv2.campaigns.Close)
	var log bytes.Buffer
	if err := loadSnapshot(c2, srv2, path, &log); err != nil {
		t.Fatal(err)
	}

	srv2.mu.Lock()
	n := len(srv2.schemes)
	var restoredAdhoc *schemeEntry
	for _, ent := range srv2.schemes {
		if ent.AdHoc {
			restoredAdhoc = ent
		}
	}
	srv2.mu.Unlock()
	if n != 3 {
		t.Fatalf("restored %d schemes, want 3 (2 parametric + 1 ad-hoc); log:\n%s", n, log.String())
	}
	cached := 0
	for i := 0; i < c2.Shards(); i++ {
		cached += c2.Shard(i).CachedSchemes()
	}
	if cached != 2 {
		t.Fatalf("shard caches hold %d schemes, want 2 (ad-hoc uploads are uncached)", cached)
	}

	// The ad-hoc design round-trips bit-identically through the designs
	// directory.
	if restoredAdhoc == nil {
		t.Fatalf("no ad-hoc scheme restored; log:\n%s", log.String())
	}
	var restoredCSV bytes.Buffer
	if err := labio.WriteDesign(&restoredCSV, restoredAdhoc.scheme.G); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restoredCSV.Bytes(), csv.Bytes()) {
		t.Fatal("restored ad-hoc design differs from the uploaded one")
	}
	files, err := os.ReadDir(designsDir(path))
	if err != nil || len(files) != 1 {
		t.Fatalf("designs dir: files=%v err=%v, want exactly one CSV", files, err)
	}

	// The rebuilt scheme is the same design: a repeat request is a cache
	// hit with an identical graph, and the registry deduplicates the id.
	des, err := engine.DesignByName("random-regular", engine.DesignParams{Gamma: 50})
	if err != nil {
		t.Fatal(err)
	}
	es1, err := c1.Scheme(des, 200, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	es2, err := c2.Scheme(des, 200, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	var d1, d2 bytes.Buffer
	if err := labio.WriteDesign(&d1, es1.G); err != nil {
		t.Fatal(err)
	}
	if err := labio.WriteDesign(&d2, es2.G); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Fatal("restored scheme's design differs from the original")
	}
	hits := uint64(0)
	for i := 0; i < c2.Shards(); i++ {
		hits += c2.Shard(i).Stats().CacheHits
	}
	if hits == 0 {
		t.Fatal("repeat scheme request after restore was not a cache hit")
	}
}

func TestLoadSnapshotMissingAndCorrupt(t *testing.T) {
	c := snapCluster(t)
	srv := newServer(c, campaign.Config{})
	t.Cleanup(srv.campaigns.Close)
	var log bytes.Buffer

	// Missing file: first boot, not an error.
	if err := loadSnapshot(c, srv, filepath.Join(t.TempDir(), "none.json"), &log); err != nil {
		t.Fatalf("missing snapshot: %v", err)
	}

	// Corrupt file: refuse to boot silently wrong.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := loadSnapshot(c, srv, bad, &log); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}

	// Unknown design entries fail soft with a logged skip.
	skip := filepath.Join(t.TempDir(), "skip.json")
	if err := os.WriteFile(skip, []byte(`[{"design":"gone","n":10,"m":5}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	log.Reset()
	if err := loadSnapshot(c, srv, skip, &log); err != nil {
		t.Fatalf("soft-fail entry: %v", err)
	}
	if log.Len() == 0 {
		t.Fatal("skipped entry not logged")
	}

	// Ad-hoc entries whose CSV is gone (or whose file field escapes the
	// designs directory) fail soft too.
	adhoc := filepath.Join(t.TempDir(), "adhoc.json")
	body := `[{"design":"uploaded","n":10,"m":5,"ad_hoc":true,"file":"gone.csv"},` +
		`{"design":"uploaded","n":10,"m":5,"ad_hoc":true,"file":"../escape.csv"}]`
	if err := os.WriteFile(adhoc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	log.Reset()
	if err := loadSnapshot(c, srv, adhoc, &log); err != nil {
		t.Fatalf("soft-fail ad-hoc entries: %v", err)
	}
	srv.mu.Lock()
	n := len(srv.schemes)
	srv.mu.Unlock()
	if n != 0 {
		t.Fatalf("registered %d schemes from broken ad-hoc entries, want 0", n)
	}
	if log.Len() == 0 {
		t.Fatal("broken ad-hoc entries not logged")
	}
}
