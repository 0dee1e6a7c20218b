package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/wal"
)

// Boot-time recovery: Restore rebuilds campaigns from the logs
// wal.Recover produced. A sealed log becomes a read-only finished
// campaign — its event log (and so every SSE Last-Event-ID cursor) is
// exactly what clients saw before the restart. An unsealed log resumes:
// already-journaled settlements replay into the event log, and the
// remaining jobs re-enter the dispatcher's fair Offer/ErrSaturated loop
// like freshly admitted work. Decodes are deterministic and idempotent
// (seeded scheme builds, deterministic decoders, per-signal noise
// seeds), so a re-dispatched job settles bit-identically to the run the
// crash interrupted.

// SchemeResolver maps a journaled campaign spec back to a live scheme.
// pooledd resolves the spec's SchemeRef against its scheme registry,
// rebuilding parametric designs on demand. A resolver error fails the
// campaign's remaining jobs (the settled prefix is kept); it never
// fails boot.
type SchemeResolver func(spec wal.CampaignSpec) (*engine.Scheme, error)

// RestoredCampaign reports one replayed campaign.
type RestoredCampaign struct {
	Campaign *Campaign
	// State is the recovery outcome — "done", "canceled", or "expired"
	// for sealed logs restored read-only, "running" for campaigns whose
	// jobs re-dispatched, "failed" when the spec could not be brought
	// back to life (unresolvable scheme, unparseable noise model).
	State string
	// Redispatched counts the jobs re-entered into the dispatcher.
	Redispatched int
}

// Restore replays recovered logs into the store, in the creation order
// wal.Recover sorted them. It must run before the store serves traffic
// (pooledd calls it during boot, after the -designs preloads and the
// WAL's scheme records have rebuilt the scheme registry the resolver
// consults).
func (st *Store) Restore(logs []wal.Log, resolve SchemeResolver) []RestoredCampaign {
	if st.cfg.WAL == nil || len(logs) == 0 {
		return nil
	}
	out := make([]RestoredCampaign, 0, len(logs))
	for _, lg := range logs {
		rc := st.restoreOne(lg, resolve)
		if rc.Campaign == nil {
			continue
		}
		st.cfg.WAL.NoteRecovered(rc.State)
		out = append(out, rc)
	}
	st.signalWake()
	return out
}

func (st *Store) restoreOne(lg wal.Log, resolve SchemeResolver) RestoredCampaign {
	spec := lg.Spec
	total := len(spec.Batch)
	tenant := spec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}

	nm, nerr := noise.Parse(spec.Noise)
	ctx, cancel := context.WithCancel(context.Background())
	cp := &Campaign{
		id:     spec.ID,
		tenant: tenant,
		total:  total,
		noise:  nm.Canon(),
		trace:  spec.TraceID,
		ctx:    ctx, cancel: cancel,
		results: make([]JobResult, 0, total),
		changed: make(chan struct{}),
	}
	cp.onCancel = func() { st.purgeCanceled(cp) }

	// Replay the journaled settlements. The log was normalized by
	// Recover (sorted, deduped, contiguous from seq 1), so replaying in
	// order reproduces the exact pre-crash event log — but the indices
	// inside the records are still untrusted bytes from disk.
	seen := make(map[int]bool, len(lg.Events))
	replayErr := error(nil)
	for _, er := range lg.Events {
		if er.Index < 0 || er.Index >= total || seen[er.Index] {
			replayErr = fmt.Errorf("wal: event %d references job %d twice or out of range", er.Seq, er.Index)
			break
		}
		seen[er.Index] = true
		jr := JobResult{
			Index: er.Index, Residual: er.Residual, Consistent: er.Consistent,
			DecodeNS: er.DecodeNS, Decoder: er.Decoder, Error: er.Error,
			TraceID: spec.TraceID,
		}
		if len(er.Support) > 0 {
			jr.Support = append([]int(nil), er.Support...)
		}
		switch er.Status {
		case wal.StatusCompleted:
			cp.completed++
		case wal.StatusCanceled:
			cp.canceledJobs++
		default:
			cp.failed++
		}
		cp.results = append(cp.results, jr)
	}
	if replayErr != nil {
		// Drop the replayed state wholesale: a log that lies about one
		// index cannot be trusted about any, and the jobs re-run anyway.
		cp.completed, cp.failed, cp.canceledJobs = 0, 0, 0
		cp.results = make([]JobResult, 0, total)
		seen = map[int]bool{}
	}

	// Admission bookkeeping: recovered campaigns bypass MaxActive and
	// tenant quotas — they were admitted before the crash, and refusing
	// them now would drop acknowledged work. IDs never regress: Create
	// continues the sequence above every recovered id.
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		cancel()
		return RestoredCampaign{}
	}
	if n := campaignSeq(spec.ID); n > st.nextID {
		st.nextID = n
	}
	if _, dup := st.byID[spec.ID]; dup {
		st.mu.Unlock()
		cancel()
		return RestoredCampaign{}
	}
	st.byID[spec.ID] = cp
	st.mu.Unlock()

	settled := cp.completed + cp.failed + cp.canceledJobs

	// A sealed log is a finished campaign: restore it read-only — the
	// terminal event is reconstructed, never re-journaled, and nothing
	// may ever append to the file again (a record after a seal is the
	// interior-corruption case Recover refuses boot over).
	if lg.Seal != nil {
		now := time.Now()
		switch State(lg.Seal.State) {
		case Canceled:
			cp.canceledFlag = true
			cp.canceledAt = now
		case Expired:
			cp.expiredFlag = true
			cp.quotaReleased = true
		}
		if settled == total {
			cp.finished = now
		} else if !cp.expiredFlag {
			// A done/canceled seal with jobs unaccounted for is a log that
			// contradicts itself; restore conservatively as expired so
			// waiters still observe a terminal state.
			cp.expiredFlag = true
			cp.quotaReleased = true
		}
		cp.sealLocked() // no journal is attached: nothing is re-journaled
		return RestoredCampaign{Campaign: cp, State: string(cp.done.State)}
	}

	// The campaign still has live work (or a terminal record the crash
	// cut off): reattach the journal so the remaining settles append to
	// the same log.
	if err := st.cfg.WAL.Resume(spec.ID); err != nil {
		slog.Warn("campaign: wal resume failed; continuing without journal", "campaign", spec.ID, "err", err)
	} else {
		cp.jnl = st.cfg.WAL
	}

	switch {
	case replayErr != nil, nerr != nil:
		err := errors.Join(replayErr, nerr)
		st.settleMissing(cp, seen, fmt.Errorf("wal recovery: %w", err))
		st.finalizeRestored(cp)
		return RestoredCampaign{Campaign: cp, State: "failed"}
	case lg.Canceled:
		// Cancellation was journaled: the un-settled jobs settle as
		// canceled, exactly as they would have had the crash not raced
		// the cancel's drain.
		cp.canceledFlag = true
		cp.canceledAt = time.Now()
		cancel()
		st.settleMissing(cp, seen, context.Canceled)
		st.finalizeRestored(cp)
		return RestoredCampaign{Campaign: cp, State: string(Canceled)}
	}

	var dec decoder.Decoder
	var es *engine.Scheme
	var err error
	if spec.Decoder != "" {
		dec, err = engine.DecoderByName(spec.Decoder)
	}
	if err == nil {
		es, err = resolve(spec)
	}
	if err == nil {
		err = validateRestoredScheme(es, spec)
	}
	if err != nil {
		st.settleMissing(cp, seen, fmt.Errorf("wal recovery: %w", err))
		st.finalizeRestored(cp)
		return RestoredCampaign{Campaign: cp, State: "failed"}
	}

	// Re-dispatch the unsettled jobs through the normal fair-dispatch
	// path, built as Create builds them — including the shard-unavailable
	// interception, so a recovered campaign survives a dead worker the
	// same way a fresh one does.
	jobs := st.campaignJobs(cp, engine.Job{
		Scheme: es, K: spec.K, Noise: nm, Dec: dec, TraceID: spec.TraceID,
	}, spec.Batch, seen)
	// Only re-dispatched jobs are charged to the tenant's quota, so only
	// they release it: the settles above, of jobs the log had no record
	// for, carry no hook.
	redispatched := 0
	st.mu.Lock()
	ts := st.tenantLocked(tenant)
	cp.onSettled = func(decodeNS int64, completed bool) { st.jobSettled(ts, tenant, decodeNS, completed) }
	for i := range jobs {
		if !seen[i] {
			ts.push(pendingJob{cp: cp, job: jobs[i]})
			redispatched++
		}
	}
	ts.unsettled.Add(int64(redispatched))
	st.pendingTotal += redispatched
	st.mu.Unlock()

	if redispatched == 0 {
		// Every job was journaled but the seal was lost to the crash:
		// sealing now writes the terminal record the old process missed.
		st.finalizeRestored(cp)
		return RestoredCampaign{Campaign: cp, State: string(Done)}
	}
	return RestoredCampaign{Campaign: cp, State: string(Running), Redispatched: redispatched}
}

// validateRestoredScheme cross-checks a resolved scheme against the
// journaled batch shape before jobs are built from it.
func validateRestoredScheme(es *engine.Scheme, spec wal.CampaignSpec) error {
	if es == nil || es.G == nil {
		return errors.New("scheme resolved to nothing")
	}
	if len(spec.Batch) == 0 {
		return errors.New("journaled batch is empty")
	}
	if spec.K < 0 || spec.K > es.G.N() {
		return fmt.Errorf("journaled k=%d out of [0,%d]", spec.K, es.G.N())
	}
	m := es.G.M()
	for i, y := range spec.Batch {
		if len(y) != m {
			return fmt.Errorf("journaled job %d has %d counts for %d queries", i, len(y), m)
		}
	}
	return nil
}

// settleMissing settles every job the log had no record for. Runs
// without st.mu held — settle takes cp.mu and calls the store hooks.
func (st *Store) settleMissing(cp *Campaign, seen map[int]bool, cause error) {
	for i := 0; i < cp.total; i++ {
		if !seen[i] {
			cp.settle(i, engine.Result{}, cause)
		}
	}
}

// finalizeRestored seals a campaign whose jobs are all settled but
// whose log lost its terminal record to the crash (settle only seals
// when it performs the final settlement itself).
func (st *Store) finalizeRestored(cp *Campaign) {
	cp.mu.Lock()
	if cp.settledLocked() == cp.total && !cp.sealed {
		if cp.finished.IsZero() {
			cp.finished = time.Now()
		}
		cp.sealLocked()
		cp.notifyLocked()
	}
	cp.mu.Unlock()
}
