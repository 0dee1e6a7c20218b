package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Log is one recovered campaign log, ready for campaign.Store.Restore.
type Log struct {
	Path      string
	Spec      CampaignSpec
	Events    []EventRecord // normalized: sorted, deduped, contiguous from seq 1
	Canceled  bool          // a cancel record was journaled
	Seal      *Seal         // terminal record, if the log is complete
	Truncated bool          // a torn tail record was cut off
}

// Recover scans every log in the WAL directory and returns the
// campaigns it can reconstruct, ordered by campaign sequence number so
// restore re-admits them in creation order.
//
// The tail of a log is where a crash lands, so damage there is
// expected: a record whose bytes run out, or whose checksum fails with
// nothing after it, is a torn write — it is physically truncated away
// and recovery continues. Damage anywhere else means the disk lied
// (bit rot, tampering, a concurrent writer): that is not a crash
// artifact, and Recover refuses with an error naming the file and
// offset rather than serve a silently-wrong campaign.
func (w *WAL) Recover() ([]Log, error) {
	if w == nil {
		return nil, nil
	}
	paths, err := w.list(logSuffix)
	if err != nil {
		return nil, err
	}
	var logs []Log
	for _, path := range paths {
		lg, ok, err := w.recoverFile(path)
		if err != nil {
			return nil, err
		}
		if ok {
			logs = append(logs, lg)
		}
	}
	return logs, nil
}

// RecoverSchemes reads every scheme record in the WAL directory, in id
// order. A record whose bytes run out was never acknowledged, and its
// file is deleted. A scheme file is written whole, in one write, and
// fsynced before its registration is acknowledged, so a complete record
// that fails its checksum or parse is not a torn write: it refuses boot,
// naming the file and offset, and the file stays in place. So does a
// file holding anything but one scheme record named like the file.
func (w *WAL) RecoverSchemes() ([]SchemeRecord, error) {
	if w == nil {
		return nil, nil
	}
	paths, err := w.list(schemeSuffix)
	if err != nil {
		return nil, err
	}
	var out []SchemeRecord
	for _, path := range paths {
		var sr SchemeRecord
		ok, _, err := w.readFile(path, false, func(rec record, off, rest int) error {
			if rec.kind != recScheme {
				return fmt.Errorf("record at offset %d has kind %d, want scheme", off, rec.kind)
			}
			if rest > 0 {
				return fmt.Errorf("%d bytes after the scheme record at offset %d", rest, off)
			}
			if sr = rec.scheme; sr.ID+schemeSuffix != filepath.Base(path) {
				return fmt.Errorf("record names scheme %q (file renamed?)", sr.ID)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, sr)
		}
	}
	return out, nil
}

// list returns the paths of the directory's files with suffix, in the
// order of the ids they are named for ("c2" before "c10").
func (w *WAL) list(suffix string) ([]string, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	for _, ent := range entries {
		if !ent.IsDir() && strings.HasSuffix(ent.Name(), suffix) {
			paths = append(paths, filepath.Join(w.dir, ent.Name()))
		}
	}
	sort.SliceStable(paths, func(i, j int) bool { return idSeq(filepath.Base(paths[i])) < idSeq(filepath.Base(paths[j])) })
	return paths, nil
}

// idSeq extracts the numeric part of a "c<n>" campaign or "s<n>" scheme
// id, or of a file named for one, for ordering (0 for another shape).
func idSeq(id string) (n int64) {
	fmt.Sscanf(id[min(1, len(id)):], "%d", &n)
	return n
}

// recoverFile replays one campaign log. ok=false skips the file (never
// acknowledged to a client); a non-nil error refuses boot.
func (w *WAL) recoverFile(path string) (Log, bool, error) {
	lg := Log{Path: path}
	ok, truncated, err := w.readFile(path, true, func(rec record, off, rest int) error {
		first := off == len(fileHeader)
		switch {
		case first && rec.kind != recSpec:
			return fmt.Errorf("first record has kind %d, want spec", rec.kind)
		case !first && rec.kind == recSpec:
			return fmt.Errorf("duplicate spec record at offset %d", off)
		}
		switch rec.kind {
		case recSpec:
			lg.Spec = rec.spec
		case recEvent:
			lg.Events = append(lg.Events, rec.event)
		case recCancel:
			lg.Canceled = true
		case recSeal:
			s := rec.seal
			lg.Seal = &s
			if rest > 0 {
				return fmt.Errorf("%d bytes after seal record", rest)
			}
		default:
			return fmt.Errorf("record at offset %d has kind %d, not a campaign record", off, rec.kind)
		}
		return nil
	})
	if err != nil || !ok {
		return Log{}, false, err
	}
	lg.Truncated = truncated
	if want := filepath.Base(path); lg.Spec.ID+logSuffix != want {
		return Log{}, false, fmt.Errorf("wal: %s: spec names campaign %q (file renamed?)", path, lg.Spec.ID)
	}
	lg.Events = normalizeEvents(lg.Events)
	return lg, true, nil
}

// readFile reads one journal file record by record, handing fn each
// parsed record, its offset, and the number of bytes after it; an
// error from fn is interior corruption and refuses boot. fn sees a seal
// before the bytes after it, so a torn record after a seal is refused
// too. A torn tail record is truncated away (truncated reports it): one
// whose bytes run out, or, when appended is set (a campaign log, whose
// records after the first are appended one write each), a complete
// final record that fails its checksum or parse. A file left with no
// record — created but never written, or its first record torn — was
// never acknowledged, because create writes the header and the first
// record in one write: it is deleted, ok false.
func (w *WAL) readFile(path string, appended bool, fn func(rec record, off, rest int) error) (ok, truncated bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, false, fmt.Errorf("wal: %w", err)
	}
	if len(data) > 0 {
		if len(data) < len(fileHeader) || string(data[:4]) != string(fileHeader[:4]) {
			return false, false, fmt.Errorf("wal: %s: bad file header (not a journal file)", path)
		}
		if data[4] != walVersion {
			return false, false, fmt.Errorf("wal: %s: unsupported log version %d (have %d)", path, data[4], walVersion)
		}
	}
	for pos := len(fileHeader); pos < len(data); {
		payload, next, torn, ferr := readFramedRecord(data, pos)
		var rec record
		if ferr == nil {
			rec, ferr = parsePayload(payload)
		}
		if ferr != nil {
			// A complete record that fails its checksum or parse is torn
			// only as the final record of an appended log (a torn append
			// can leave any bytes); anywhere else it means real corruption.
			if !torn && !(appended && next == len(data)) {
				return false, false, fmt.Errorf("wal: %s: corrupt record at offset %d: %v", path, pos, ferr)
			}
			// Cut the torn record off so the file is clean for Resume.
			w.log.Warn("wal: truncating torn tail record", "path", path, "offset", pos, "cause", ferr)
			if err := os.Truncate(path, int64(pos)); err != nil {
				return false, false, fmt.Errorf("wal: %s: truncating torn tail at %d: %w", path, pos, err)
			}
			truncated = true
			break
		}
		if err := fn(rec, pos, len(data)-next); err != nil {
			return false, false, fmt.Errorf("wal: %s: %v", path, err)
		}
		ok = true
		pos = next
	}
	if !ok {
		w.log.Warn("wal: dropping file with no record", "path", path)
		os.Remove(path)
	}
	return ok, truncated, nil
}

// readFramedRecord decodes one record frame at pos: length prefix,
// payload, CRC32C. next is the offset after the frame, also when its
// checksum fails. torn reports a frame whose bytes run out at EOF — a
// torn write whatever the file; whether a complete frame with a bad
// checksum can be one is the caller's call.
func readFramedRecord(data []byte, pos int) (payload []byte, next int, torn bool, err error) {
	n, used := binary.Uvarint(data[pos:])
	if used <= 0 {
		return nil, 0, true, fmt.Errorf("torn length prefix at offset %d", pos)
	}
	start := pos
	pos += used
	if rem := uint64(len(data) - pos); n > rem || rem-n < 4 {
		return nil, 0, true, fmt.Errorf("record at offset %d claims %d bytes, %d remain", start, n, len(data)-pos)
	}
	if n > maxWALRecord {
		return nil, 0, false, fmt.Errorf("record at offset %d claims %d bytes, limit %d", start, n, maxWALRecord)
	}
	end := pos + int(n)
	payload = data[pos:end]
	want := binary.LittleEndian.Uint32(data[end : end+4])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, end + 4, false,
			fmt.Errorf("checksum mismatch at offset %d (got %08x want %08x)", start, got, want)
	}
	return payload, end + 4, false, nil
}

// normalizeEvents sorts by seq, drops duplicates (last write wins), and
// keeps only the contiguous prefix starting at seq 1 — events past a
// gap are unreachable by the SSE cursor contract, and their jobs
// re-dispatch anyway.
func normalizeEvents(events []EventRecord) []EventRecord {
	if len(events) == 0 {
		return nil
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	out := events[:0]
	for _, ev := range events {
		if n := len(out); n > 0 && out[n-1].Seq == ev.Seq {
			out[n-1] = ev
			continue
		}
		if ev.Seq != int64(len(out))+1 {
			break
		}
		out = append(out, ev)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
