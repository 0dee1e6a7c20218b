package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
)

// The -snapshot file persists the scheme registry across restarts: on
// shutdown the server writes every registered scheme as JSON; on boot
// it rebuilds them through the cluster's caches, so the first request
// after a restart is a cache hit, not a build. Parametric schemes
// (design name + n, m, seed + design knobs) rebuild from their spec
// alone. Ad-hoc uploads are not reproducible from a spec, so their
// graphs are persisted as labio design CSVs in the <snapshot>.designs/
// directory next to the spec file and read back on boot. -designs file
// preloads are still skipped — the files themselves are their
// warm-start path.

// snapshotEntry is one restorable scheme in the snapshot file.
type snapshotEntry struct {
	Design string  `json:"design"`
	N      int     `json:"n"`
	M      int     `json:"m"`
	Seed   uint64  `json:"seed"`
	Gamma  int     `json:"gamma,omitempty"`
	P      float64 `json:"p,omitempty"`
	D      int     `json:"d,omitempty"`

	// AdHoc marks an uploaded design whose graph lives in the snapshot's
	// designs directory under File (a bare filename).
	AdHoc bool   `json:"ad_hoc,omitempty"`
	File  string `json:"file,omitempty"`

	g *graph.Bipartite // the ad-hoc graph to persist; not serialized
}

// designsDir is where a snapshot's ad-hoc design CSVs live.
func designsDir(path string) string { return path + ".designs" }

// snapshotEntries lists the server's restorable schemes in registration
// order: parametric specs plus ad-hoc uploads (with their graphs,
// destined for the designs directory).
func (s *server) snapshotEntries() []snapshotEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]snapshotEntry, 0, len(s.order))
	for _, id := range s.order {
		ent, ok := s.schemes[id]
		if !ok || strings.HasPrefix(ent.Design, "file:") {
			continue
		}
		if ent.AdHoc {
			out = append(out, snapshotEntry{
				Design: ent.Design, N: ent.N, M: ent.M,
				AdHoc: true, File: ent.ID + ".csv", g: ent.scheme.G,
			})
			continue
		}
		out = append(out, snapshotEntry{
			Design: ent.Design, N: ent.N, M: ent.M, Seed: ent.Seed,
			Gamma: ent.Gamma, P: ent.P, D: ent.D,
		})
	}
	return out
}

// writeSnapshot persists the spec list to path atomically (temp file +
// rename), so a crash mid-write never clobbers the previous snapshot.
// Ad-hoc graphs are written as labio CSVs into a staging directory
// that replaces the designs directory only after the spec file has
// landed — a failure at any earlier step leaves the previous snapshot
// (spec file and its CSVs) fully intact.
func writeSnapshot(srv *server, path string) error {
	entries := srv.snapshotEntries()
	dir := designsDir(path)
	staging := dir + ".tmp"
	if err := os.RemoveAll(staging); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	hasAdhoc := false
	for _, se := range entries {
		if !se.AdHoc {
			continue
		}
		if err := os.MkdirAll(staging, 0o755); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		hasAdhoc = true
		f, err := os.Create(filepath.Join(staging, se.File))
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		werr := labio.WriteDesign(f, se.g)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("snapshot: write design %s: %w", se.File, werr)
		}
	}
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	// The new spec file is in place; swap the designs directory to match
	// (dropping stale CSVs). The window between the two renames is two
	// syscalls wide, and a crash inside it only costs ad-hoc entries,
	// which load fail-soft.
	if err := os.RemoveAll(dir); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if hasAdhoc {
		if err := os.Rename(staging, dir); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	return nil
}

// loadSnapshot rebuilds the snapshot's schemes through the cluster
// (parametric specs land in their owning shard's cache, ad-hoc CSVs
// place round-robin like any upload) and registers them with the
// server. A missing file is not an error — the first boot has no
// snapshot yet. Individual entries fail soft: a design renamed between
// versions, or a deleted ad-hoc CSV, logs a warning instead of refusing
// to boot.
func loadSnapshot(cluster *engine.Cluster, srv *server, path string, logw io.Writer) error {
	buf, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	var entries []snapshotEntry
	if err := json.Unmarshal(buf, &entries); err != nil {
		return fmt.Errorf("snapshot %s: %w", path, err)
	}
	for _, se := range entries {
		if se.AdHoc {
			loadAdhocEntry(cluster, srv, path, se, logw)
			continue
		}
		params := engine.DesignParams{Gamma: se.Gamma, P: se.P, D: se.D}
		des, err := engine.DesignByName(se.Design, params)
		if err != nil {
			fmt.Fprintf(logw, "pooledd: snapshot skip %s n=%d m=%d: %v\n", se.Design, se.N, se.M, err)
			continue
		}
		es, err := cluster.Scheme(des, se.N, se.M, se.Seed)
		if err != nil {
			fmt.Fprintf(logw, "pooledd: snapshot rebuild %s n=%d m=%d failed: %v\n", se.Design, se.N, se.M, err)
			continue
		}
		ent := srv.register(es, des.Name(), se.N, se.M, se.Seed, params, false)
		fmt.Fprintf(logw, "pooledd: snapshot restored scheme %s (%s n=%d m=%d seed=%d shard=%d)\n",
			ent.ID, se.Design, se.N, se.M, se.Seed, es.Home())
	}
	return nil
}

// loadAdhocEntry restores one persisted ad-hoc design. The File field
// is treated as a bare name inside the designs directory — a snapshot
// edited to point elsewhere must not read arbitrary paths.
func loadAdhocEntry(cluster *engine.Cluster, srv *server, path string, se snapshotEntry, logw io.Writer) {
	name := filepath.Base(se.File)
	if name != se.File || name == "." || name == string(filepath.Separator) {
		fmt.Fprintf(logw, "pooledd: snapshot skip ad-hoc design with bad file %q\n", se.File)
		return
	}
	f, err := os.Open(filepath.Join(designsDir(path), name))
	if err != nil {
		fmt.Fprintf(logw, "pooledd: snapshot ad-hoc design %s missing: %v\n", name, err)
		return
	}
	g, err := labio.ReadDesign(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(logw, "pooledd: snapshot ad-hoc design %s unreadable: %v\n", name, err)
		return
	}
	es := cluster.SchemeFromGraph(g, engine.GraphKey(g))
	ent := srv.register(es, se.Design, g.N(), g.M(), 0, engine.DesignParams{}, true)
	fmt.Fprintf(logw, "pooledd: snapshot restored ad-hoc scheme %s from %s (n=%d m=%d shard=%d)\n",
		ent.ID, name, g.N(), g.M(), es.Home())
}
