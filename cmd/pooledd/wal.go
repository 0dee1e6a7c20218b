package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
	"pooleddata/internal/pooling"
	"pooleddata/internal/wal"
)

// Persistence and boot. The WAL journals every registry entry as a
// scheme record: its id, its scheme ref (the JSON below), and an ad-hoc
// design's binary form (an upload's or a -designs preload's). Campaigns
// journal the same ref. At boot replaySchemes runs first, then
// preloadDesigns, then restoreCampaigns, which resolves each campaign's
// ref by its key through the registry or rebuilds a parametric design
// from the ref. A ref that resolves to nothing fails the campaign's
// remaining jobs, never boot.

// walSchemeRef is the journaled scheme description. Ad-hoc designs are
// named by Key, their engine.GraphKey.
type walSchemeRef struct {
	Design string  `json:"design"`
	N      int     `json:"n"`
	M      int     `json:"m"`
	Seed   uint64  `json:"seed,omitempty"`
	Gamma  int     `json:"gamma,omitempty"`
	P      float64 `json:"p,omitempty"`
	D      int     `json:"d,omitempty"`
	AdHoc  bool    `json:"ad_hoc,omitempty"`
	Key    string  `json:"key,omitempty"`
}

// ref is the entry's journaled description; an upload's key is its
// routing key, the GraphKey it was registered under.
func (e *schemeEntry) ref() walSchemeRef {
	r := walSchemeRef{Design: e.Design, N: e.N, M: e.M, Seed: e.Seed, Gamma: e.Gamma, P: e.P, D: e.D, AdHoc: e.AdHoc}
	if e.AdHoc {
		r.Key = e.scheme.RouteKey()
	}
	return r
}

// refJSON serializes the entry's ref into the journaled form.
func (e *schemeEntry) refJSON() string {
	buf, _ := json.Marshal(e.ref()) // plain fields: Marshal cannot fail
	return string(buf)
}

// journalScheme writes ent's scheme record.
func (s *server) journalScheme(ent *schemeEntry) error {
	if s.journal == nil {
		return nil
	}
	rec := wal.SchemeRecord{ID: ent.ID, Ref: ent.refJSON()}
	if ent.AdHoc {
		rec.Design = ent.scheme.G.AppendBinary(nil)
	}
	return s.journal.PutScheme(rec)
}

func parseSchemeRef(refJSON string) (walSchemeRef, error) {
	var ref walSchemeRef
	err := json.Unmarshal([]byte(refJSON), &ref)
	if err != nil {
		err = fmt.Errorf("bad scheme ref %q: %v", refJSON, err)
	}
	return ref, err
}

// refDesign is a parametric ref's design.
func refDesign(ref walSchemeRef) (pooling.Design, error) {
	return engine.DesignByName(ref.Design, engine.DesignParams{Gamma: ref.Gamma, P: ref.P, D: ref.D})
}

// buildRef rebuilds a parametric ref's scheme into its shard's cache:
// seeded builds are deterministic, so the same (design, n, m, seed)
// reproduces the pre-crash scheme bit for bit.
func (s *server) buildRef(ref walSchemeRef) (*engine.Scheme, error) {
	des, err := refDesign(ref)
	if err != nil {
		return nil, err
	}
	return s.cluster.Scheme(des, ref.N, ref.M, ref.Seed)
}

// resolveSchemeRef maps a journaled ref back to a live scheme: the
// registry entry under the ref's key (an ad-hoc design's GraphKey, a
// parametric design's spec key), or else a parametric design rebuilt
// from the ref.
func (s *server) resolveSchemeRef(refJSON string) (*engine.Scheme, error) {
	ref, err := parseSchemeRef(refJSON)
	if err != nil {
		return nil, err
	}
	key := ref.Key
	if !ref.AdHoc {
		des, err := refDesign(ref)
		if err != nil {
			return nil, fmt.Errorf("rebuild scheme from ref %q: %v", refJSON, err)
		}
		key = engine.SpecFor(des, ref.N, ref.M, ref.Seed).Key()
	}
	if ent, ok := s.registered(key); ok {
		return ent.scheme, nil
	}
	if ref.AdHoc {
		return nil, fmt.Errorf("ad-hoc design %s (n=%d m=%d) is gone from the registry", ref.Key, ref.N, ref.M)
	}
	es, err := s.buildRef(ref)
	if err != nil {
		return nil, fmt.Errorf("rebuild scheme from ref %q: %v", refJSON, err)
	}
	// Re-register so the scheme is addressable again (same dedup-by-key
	// path POST /v1/schemes uses) and later campaigns share the entry.
	if _, err := s.register(es, ref); err != nil {
		return nil, err
	}
	return es, nil
}

// preloadDesigns registers labio design CSV files — a lab's standing
// designs, passed via the -designs flag — exactly as uploads of the
// same CSV: keyed by content, journaled with their design, and answered
// by the entry that already holds their key (a journaled id from an
// earlier boot, or an upload). The ref names the design
// "file:<cleaned path>". Each file logs one line to logw.
func preloadDesigns(srv *server, paths []string, logw io.Writer) error {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("preload %s: %w", p, err)
		}
		g, err := labio.ReadDesign(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("preload %s: %w", p, err)
		}
		ent, err := srv.registerGraph(g, "file:"+filepath.Clean(p))
		if err != nil {
			return fmt.Errorf("preload %s: %w", p, err)
		}
		fmt.Fprintf(logw, "pooledd: preloaded scheme %s from %s (n=%d m=%d shard=%d)\n",
			ent.ID, p, g.N(), g.M(), srv.placed(ent).Shard)
	}
	return nil
}

// replaySchemes brings the journaled registry back at boot, before the
// -designs preloads and restoreCampaigns: in id order, under the
// journaled ids, parametric schemes rebuilt into the shard caches and
// ad-hoc designs parsed from their binary form. The id counter resumes
// past the largest journaled id. A parametric record whose design no
// longer builds is logged and skipped. A corrupt record
// refuses boot, and so does an ad-hoc design graph.ParseBinary refuses
// (one journaled in version 1, say): the record passed its checksum, so
// skipping it would drop the upload for good.
func replaySchemes(srv *server, logw io.Writer) error {
	recs, err := srv.journal.RecoverSchemes()
	if err != nil {
		return err
	}
	srv.regMu.Lock()
	defer srv.regMu.Unlock()
	if len(recs) > 0 {
		var last int // recs come in id order
		fmt.Sscanf(recs[len(recs)-1].ID, "s%d", &last)
		srv.nextID = max(srv.nextID, last)
	}
	for _, rec := range recs {
		ref, err := parseSchemeRef(rec.Ref)
		var es *engine.Scheme
		switch {
		case err != nil: // logged and skipped below
		case ref.AdHoc:
			g, err := graph.ParseBinary(rec.Design)
			if err != nil {
				return fmt.Errorf("wal: %s.scheme: ad-hoc design: %v", rec.ID, err)
			}
			es = srv.cluster.SchemeFromGraph(g, engine.GraphKey(g))
		default:
			es, err = srv.buildRef(ref)
		}
		if err != nil {
			fmt.Fprintf(logw, "pooledd: wal skipped scheme record %s: %v\n", rec.ID, err)
			continue
		}
		ent := newEntry(rec.ID, es, ref)
		srv.insert(ent)
		fmt.Fprintf(logw, "pooledd: wal restored scheme %s (%s n=%d m=%d shard=%d)\n",
			ent.ID, ent.Design, ent.N, ent.M, srv.placed(ent).Shard)
	}
	return nil
}

// restoreCampaigns replays the WAL into the campaign store during boot,
// after replaySchemes has brought the scheme registry back. An
// interior-corrupt log refuses boot (the error from Recover); per-
// campaign resolution problems degrade to failed jobs instead.
func restoreCampaigns(srv *server, w *wal.WAL, logw io.Writer) error {
	logs, err := w.Recover()
	if err != nil {
		return err
	}
	if len(logs) == 0 {
		return nil
	}
	restored := srv.campaigns.Restore(logs, func(spec wal.CampaignSpec) (*engine.Scheme, error) {
		return srv.resolveSchemeRef(spec.SchemeRef)
	})
	for _, rc := range restored {
		p := rc.Campaign.Progress()
		fmt.Fprintf(logw, "pooledd: wal restored campaign %s (%s, %d/%d settled, %d re-dispatched)\n",
			rc.Campaign.ID(), rc.State, p.Settled(), p.Total, rc.Redispatched)
	}
	return nil
}
