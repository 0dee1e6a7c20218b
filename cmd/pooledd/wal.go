package main

import (
	"encoding/json"
	"fmt"
	"io"

	"pooleddata/internal/engine"
	"pooleddata/internal/wal"
)

// WAL glue: campaigns journal which scheme they decode against as an
// opaque SchemeRef — the JSON below, carrying the same fields the
// -snapshot file persists per entry. At recovery the ref resolves
// against the scheme registry first (which -designs preloads and
// -snapshot restores populate before recovery runs), then falls back to
// rebuilding parametric designs from their parameters — so a seeded
// random-regular campaign replays even on a server that never had a
// snapshot. Only ad-hoc uploads and file-preloaded designs strictly
// need their registry entry back; a ref that resolves to nothing fails
// the campaign's remaining jobs, never the boot.

// walSchemeRef is the journaled scheme description.
type walSchemeRef struct {
	Design string  `json:"design"`
	N      int     `json:"n"`
	M      int     `json:"m"`
	Seed   uint64  `json:"seed,omitempty"`
	Gamma  int     `json:"gamma,omitempty"`
	P      float64 `json:"p,omitempty"`
	D      int     `json:"d,omitempty"`
	AdHoc  bool    `json:"ad_hoc,omitempty"`
}

// schemeRefFor serializes a registry entry into the journaled form.
func (s *server) schemeRefFor(ent schemeEntry) string {
	buf, err := json.Marshal(walSchemeRef{
		Design: ent.Design, N: ent.N, M: ent.M, Seed: ent.Seed,
		Gamma: ent.Gamma, P: ent.P, D: ent.D, AdHoc: ent.AdHoc,
	})
	if err != nil {
		return ""
	}
	return string(buf)
}

// resolveSchemeRef maps a journaled ref back to a live scheme.
func (s *server) resolveSchemeRef(refJSON string) (*engine.Scheme, error) {
	var ref walSchemeRef
	if refJSON == "" {
		return nil, fmt.Errorf("campaign journaled no scheme ref")
	}
	if err := json.Unmarshal([]byte(refJSON), &ref); err != nil {
		return nil, fmt.Errorf("bad scheme ref %q: %v", refJSON, err)
	}
	// Registry scan first: it holds ad-hoc uploads (restored by
	// -snapshot), file-preloaded designs (-designs), and anything
	// already rebuilt this boot.
	s.mu.Lock()
	for _, id := range s.order {
		ent := s.schemes[id]
		if ent.Design == ref.Design && ent.N == ref.N && ent.M == ref.M &&
			ent.Seed == ref.Seed && ent.AdHoc == ref.AdHoc &&
			ent.Gamma == ref.Gamma && ent.P == ref.P && ent.D == ref.D {
			es := ent.scheme
			s.mu.Unlock()
			return es, nil
		}
	}
	s.mu.Unlock()
	if ref.AdHoc {
		return nil, fmt.Errorf("ad-hoc design (n=%d m=%d) is gone from the registry; boot with the -snapshot that persisted it", ref.N, ref.M)
	}
	// Parametric rebuild: seeded builds are deterministic, so the same
	// (design, n, m, seed) reproduces the pre-crash scheme bit for bit.
	params := engine.DesignParams{Gamma: ref.Gamma, P: ref.P, D: ref.D}
	des, err := engine.DesignByName(ref.Design, params)
	if err != nil {
		return nil, fmt.Errorf("scheme ref %q: %v", refJSON, err)
	}
	es, err := s.cluster.Scheme(des, ref.N, ref.M, ref.Seed)
	if err != nil {
		return nil, fmt.Errorf("rebuild scheme from ref %q: %v", refJSON, err)
	}
	// Re-register so the scheme is addressable again (same dedup-by-spec
	// path POST /v1/schemes uses) and later campaigns share the entry.
	s.register(es, des.Name(), ref.N, ref.M, ref.Seed, params, false)
	return es, nil
}

// restoreCampaigns replays the WAL into the campaign store during boot,
// after -designs and -snapshot have populated the scheme registry. An
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
