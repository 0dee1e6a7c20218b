// Package wal is the durability layer for campaigns and the schemes
// they decode against: an append-only, length-prefixed,
// CRC32C-checksummed record log per campaign, and a one-record file per
// registered scheme. A log starts with the campaign spec, accumulates
// one record per settled job, and ends with a terminal seal record. On
// boot, RecoverSchemes and Recover replay the directory — truncating a
// torn tail record, refusing boot on interior corruption — so the
// server can restore its schemes, reconstruct finished campaigns and
// re-dispatch unfinished work. The on-disk format and recovery
// semantics are specified in docs/durability.md.
package wal

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"pooleddata/metrics"
)

// SyncMode selects when appended records are fsynced.
type SyncMode int

const (
	// SyncAlways fsyncs after every record: a crash loses at most the
	// record being written (which recovery truncates).
	SyncAlways SyncMode = iota
	// SyncInterval marks files dirty and fsyncs them from a background
	// ticker: a crash can lose up to one interval of settled events,
	// whose jobs simply re-dispatch on recovery.
	SyncInterval
	// SyncOff never fsyncs data records explicitly (the kernel page
	// cache decides). Spec, cancel, seal, and scheme records are still
	// synced under every mode — losing those would change campaign or
	// scheme identity, not just redo idempotent work.
	SyncOff
)

// SyncPolicy is a parsed -wal-fsync flag value.
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration // SyncInterval only
}

// ParseSyncPolicy parses "always", "off", or a positive Go duration
// ("250ms") selecting interval sync.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncPolicy{Mode: SyncAlways}, nil
	case "off":
		return SyncPolicy{Mode: SyncOff}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return SyncPolicy{}, fmt.Errorf("wal: fsync policy %q is not \"always\", \"off\", or a duration: %w", s, err)
	}
	if d <= 0 {
		return SyncPolicy{}, fmt.Errorf("wal: fsync interval %s must be positive", d)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

func (p SyncPolicy) String() string {
	switch p.Mode {
	case SyncOff:
		return "off"
	case SyncInterval:
		return p.Interval.String()
	default:
		return "always"
	}
}

// Options configures Open. Metrics and Logger may be nil.
type Options struct {
	Sync    SyncPolicy
	Metrics *metrics.Registry
	Logger  *slog.Logger
}

// WAL manages the campaign logs and scheme records under one
// directory. All methods are safe on a nil receiver (no-ops), so
// callers can thread an optional journal without guarding every touch
// point.
type WAL struct {
	dir    string
	policy SyncPolicy
	log    *slog.Logger

	appends    *metrics.Counter
	bytes      *metrics.Counter
	fsyncSec   *metrics.Histogram
	recoveredV *metrics.CounterVec

	mu     sync.Mutex
	files  map[string]*logFile
	closed bool

	stop chan struct{} // closes the interval syncer
	done chan struct{} // syncer exited
}

// logFile is one campaign's open log.
type logFile struct {
	mu     sync.Mutex
	f      *os.File
	dirty  bool // has unsynced appends (SyncInterval)
	sealed bool
}

// Open prepares dir (creating it if needed) and returns a WAL ready for
// Recover and Begin. Instruments register into opts.Metrics; a nil
// registry is a valid no-op sink.
func Open(dir string, opts Options) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := opts.Metrics
	w := &WAL{
		dir:    dir,
		policy: opts.Sync,
		log:    log,
		appends: reg.Counter("pooled_wal_appends_total",
			"Records appended to the write-ahead log (campaign and scheme records).").With(),
		bytes: reg.Counter("pooled_wal_bytes_total",
			"Bytes appended to the write-ahead log.").With(),
		fsyncSec: reg.Histogram("pooled_wal_fsync_seconds",
			"Latency of WAL fsync calls.", nil).With(),
		recoveredV: reg.Counter("pooled_wal_recovered_campaigns_total",
			"Campaigns replayed from the WAL at boot, by recovered state.", "state"),
		files: make(map[string]*logFile),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if w.policy.Mode == SyncInterval {
		go w.syncLoop()
	} else {
		close(w.done)
	}
	return w, nil
}

// File suffixes: a campaign's log, a scheme's record.
const (
	logSuffix    = ".wal"
	schemeSuffix = ".scheme"
)

// pathFor maps a campaign or scheme id to its file path. IDs are
// server-generated ("c17", "s3"), but validate anyway: an id must be a
// plain filename.
func (w *WAL) pathFor(id, suffix string) (string, error) {
	if id == "" || id != filepath.Base(id) || strings.HasPrefix(id, ".") {
		return "", fmt.Errorf("wal: id %q is not a valid file name", id)
	}
	return filepath.Join(w.dir, id+suffix), nil
}

// fsync syncs one file and feeds the latency histogram.
func (w *WAL) fsync(f *os.File) error {
	start := time.Now()
	err := f.Sync()
	w.fsyncSec.ObserveDuration(time.Since(start))
	return err
}

// syncDir fsyncs the WAL directory so file creations and removals are
// themselves durable.
func (w *WAL) syncDir() {
	d, err := os.Open(w.dir)
	if err != nil {
		return
	}
	defer d.Close()
	w.fsync(d)
}

// lookup returns the open log for id.
func (w *WAL) lookup(id string) (*logFile, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, errors.New("wal: closed")
	}
	lf := w.files[id]
	if lf == nil {
		return nil, fmt.Errorf("wal: no open log for campaign %s", id)
	}
	return lf, nil
}

// register tracks an open log, refusing duplicates.
func (w *WAL) register(id string, lf *logFile) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("wal: closed")
	}
	if _, dup := w.files[id]; dup {
		return fmt.Errorf("wal: campaign %s already has an open log", id)
	}
	w.files[id] = lf
	return nil
}

// create writes the new journal file id+suffix in one piece — an
// O_EXCL create, one write of the header and the record, an fsync of
// the file and of the directory — under every policy: the caller
// acknowledges what it wrote. A failed write leaves no file behind.
func (w *WAL) create(id, suffix string, payload []byte) (*os.File, error) {
	path, err := w.pathFor(id, suffix)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	buf := appendRecord(append([]byte(nil), fileHeader[:]...), payload)
	if _, err = f.Write(buf); err == nil {
		err = w.fsync(f)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.syncDir()
	w.appends.Inc()
	w.bytes.Add(float64(len(buf)))
	return f, nil
}

// Begin creates the log for a new campaign and writes its spec record.
// The spec is always fsynced regardless of policy: once Create returns
// an id to the client, the campaign must survive a crash.
func (w *WAL) Begin(spec CampaignSpec) error {
	if w == nil {
		return nil
	}
	f, err := w.create(spec.ID, logSuffix, appendSpecPayload(nil, spec))
	if err != nil {
		return fmt.Errorf("wal: spec for %s: %w", spec.ID, err)
	}
	if err := w.register(spec.ID, &logFile{f: f}); err != nil {
		f.Close()
		return err
	}
	return nil
}

// PutScheme journals one scheme registry entry as its own file,
// <id>.scheme, written like a spec record: the entry may be served once
// PutScheme returns, because it would survive a crash.
func (w *WAL) PutScheme(rec SchemeRecord) error {
	if w == nil {
		return nil
	}
	f, err := w.create(rec.ID, schemeSuffix, appendSchemePayload(nil, rec))
	if err != nil {
		return fmt.Errorf("wal: scheme %s: %w", rec.ID, err)
	}
	return f.Close()
}

// RemoveScheme deletes a scheme's record once its registry entry is
// evicted. Like Remove, it logs rather than returns errors.
func (w *WAL) RemoveScheme(id string) {
	if w == nil {
		return
	}
	if path, err := w.pathFor(id, schemeSuffix); err == nil {
		w.removeFile(path)
	}
}

// Resume reopens an existing log for appending — used after Recover for
// campaigns that still have work to settle.
func (w *WAL) Resume(id string) error {
	if w == nil {
		return nil
	}
	path, err := w.pathFor(id, logSuffix)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.register(id, &logFile{f: f}); err != nil {
		f.Close()
		return err
	}
	return nil
}

// append frames payload onto id's log. alwaysSync forces an fsync
// regardless of policy (spec/cancel/seal records).
func (w *WAL) append(id string, payload []byte, alwaysSync bool) error {
	lf, err := w.lookup(id)
	if err != nil {
		return err
	}
	buf := appendRecord(nil, payload)
	lf.mu.Lock()
	defer lf.mu.Unlock()
	if lf.sealed {
		return fmt.Errorf("wal: campaign %s log is sealed", id)
	}
	// One Write syscall per record: nothing buffered in userspace for a
	// SIGKILL to throw away, and a torn write is at worst one tail
	// record, which recovery truncates.
	if _, err := lf.f.Write(buf); err != nil {
		return fmt.Errorf("wal: append to %s: %w", id, err)
	}
	w.appends.Inc()
	w.bytes.Add(float64(len(buf)))
	switch {
	case alwaysSync || w.policy.Mode == SyncAlways:
		if err := w.fsync(lf.f); err != nil {
			return fmt.Errorf("wal: fsync %s: %w", id, err)
		}
		lf.dirty = false
	case w.policy.Mode == SyncInterval:
		lf.dirty = true
	}
	return nil
}

// Append journals one settled job.
func (w *WAL) Append(id string, ev EventRecord) error {
	if w == nil {
		return nil
	}
	return w.append(id, appendEventPayload(nil, ev), false)
}

// CancelMark journals a cancellation request. Always fsynced: a
// canceled campaign must not resurrect as running.
func (w *WAL) CancelMark(id string) error {
	if w == nil {
		return nil
	}
	return w.append(id, appendCancelPayload(nil), true)
}

// Seal writes the terminal record, fsyncs, and closes the log.
func (w *WAL) Seal(id string, s Seal) error {
	if w == nil {
		return nil
	}
	if err := w.append(id, appendSealPayload(nil, s), true); err != nil {
		return err
	}
	lf, err := w.lookup(id)
	if err != nil {
		return err
	}
	lf.mu.Lock()
	lf.sealed = true
	err = lf.f.Close()
	lf.mu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: close %s: %w", id, err)
	}
	return nil
}

// Remove deletes a campaign's log (GC of reaped campaigns). Errors are
// logged, not returned: retention must not wedge on a missing file.
func (w *WAL) Remove(id string) {
	if w == nil {
		return
	}
	path, err := w.pathFor(id, logSuffix)
	if err != nil {
		return
	}
	w.mu.Lock()
	lf := w.files[id]
	delete(w.files, id)
	w.mu.Unlock()
	if lf != nil {
		lf.mu.Lock()
		if !lf.sealed {
			lf.f.Close()
		}
		lf.sealed = true
		lf.mu.Unlock()
	}
	w.removeFile(path)
}

// removeFile deletes one journal file and makes the removal durable.
func (w *WAL) removeFile(path string) {
	if err := os.Remove(path); err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			w.log.Warn("wal: remove failed", "path", path, "err", err)
		}
		return
	}
	w.syncDir()
}

// NoteRecovered counts one replayed campaign in
// pooled_wal_recovered_campaigns_total.
func (w *WAL) NoteRecovered(state string) {
	if w == nil {
		return
	}
	w.recoveredV.With(state).Inc()
}

// syncLoop is the SyncInterval background syncer.
func (w *WAL) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.syncDirty()
		}
	}
}

// syncDirty fsyncs every file with unsynced appends.
func (w *WAL) syncDirty() {
	w.mu.Lock()
	pending := make([]*logFile, 0, len(w.files))
	for _, lf := range w.files {
		pending = append(pending, lf)
	}
	w.mu.Unlock()
	for _, lf := range pending {
		lf.mu.Lock()
		if lf.dirty && !lf.sealed {
			if err := w.fsync(lf.f); err != nil {
				w.log.Warn("wal: interval fsync failed", "err", err)
			} else {
				lf.dirty = false
			}
		}
		lf.mu.Unlock()
	}
}

// Close stops the interval syncer, flushes dirty logs, and closes every
// open file. Unsealed logs stay on disk for the next boot to resume.
func (w *WAL) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		<-w.done
		return nil
	}
	w.closed = true
	files := w.files
	w.files = make(map[string]*logFile)
	w.mu.Unlock()
	if w.policy.Mode == SyncInterval {
		close(w.stop)
	}
	<-w.done
	var firstErr error
	for id, lf := range files {
		lf.mu.Lock()
		if !lf.sealed {
			if lf.dirty {
				if err := w.fsync(lf.f); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("wal: fsync %s: %w", id, err)
				}
			}
			if err := lf.f.Close(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("wal: close %s: %w", id, err)
			}
			lf.sealed = true
		}
		lf.mu.Unlock()
	}
	return firstErr
}
