package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func testSpec(id string) CampaignSpec {
	return CampaignSpec{
		ID:        id,
		Tenant:    "acme",
		TraceID:   "trace-1",
		SchemeRef: `{"design":"random-regular","n":64,"m":32,"seed":7}`,
		Noise:     "gaussian:0.5:7",
		Decoder:   "basis-pursuit",
		K:         3,
		Batch:     [][]int64{{1, -2, 3}, {4, 5, -6}},
	}
}

func testEvent(seq int64, idx int) EventRecord {
	return EventRecord{
		Seq:        seq,
		Index:      idx,
		Status:     StatusCompleted,
		Decoder:    "basis-pursuit",
		Residual:   -17,
		Consistent: true,
		DecodeNS:   123456,
		Support:    []int{3, 9, 41},
	}
}

func openTest(t *testing.T, dir string, policy SyncPolicy) *WAL {
	t.Helper()
	w, err := Open(dir, Options{Sync: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		mode SyncMode
		ivl  time.Duration
		err  bool
	}{
		{"", SyncAlways, 0, false},
		{"always", SyncAlways, 0, false},
		{"off", SyncOff, 0, false},
		{"250ms", SyncInterval, 250 * time.Millisecond, false},
		{"2s", SyncInterval, 2 * time.Second, false},
		{"-1s", 0, 0, true},
		{"0s", 0, 0, true},
		{"sometimes", 0, 0, true},
	}
	for _, tc := range cases {
		p, err := ParseSyncPolicy(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q): want error, got %+v", tc.in, p)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSyncPolicy(%q): %v", tc.in, err)
			continue
		}
		if p.Mode != tc.mode || p.Interval != tc.ivl {
			t.Errorf("ParseSyncPolicy(%q) = %+v", tc.in, p)
		}
	}
}

func TestRecordRoundTrips(t *testing.T) {
	spec := testSpec("c1")
	rec, err := parsePayload(appendSpecPayload(nil, spec))
	if err != nil {
		t.Fatalf("parse spec: %v", err)
	}
	if rec.kind != recSpec || !reflect.DeepEqual(rec.spec, spec) {
		t.Fatalf("spec round-trip: got %+v", rec.spec)
	}

	ev := testEvent(4, 1)
	ev.Status = StatusFailed
	ev.Error = "decode blew up"
	ev.Consistent = false
	ev.Support = nil
	rec, err = parsePayload(appendEventPayload(nil, ev))
	if err != nil {
		t.Fatalf("parse event: %v", err)
	}
	if rec.kind != recEvent || !reflect.DeepEqual(rec.event, ev) {
		t.Fatalf("event round-trip: got %+v want %+v", rec.event, ev)
	}

	rec, err = parsePayload(appendCancelPayload(nil))
	if err != nil || rec.kind != recCancel {
		t.Fatalf("cancel round-trip: %v %+v", err, rec)
	}

	seal := Seal{State: "done", Completed: 5, Failed: 1, Canceled: 2}
	rec, err = parsePayload(appendSealPayload(nil, seal))
	if err != nil {
		t.Fatalf("parse seal: %v", err)
	}
	if rec.kind != recSeal || rec.seal != seal {
		t.Fatalf("seal round-trip: got %+v", rec.seal)
	}
}

func TestRecordTruncatesLongStrings(t *testing.T) {
	ev := testEvent(1, 0)
	ev.Error = strings.Repeat("x", maxWALString+100)
	rec, err := parsePayload(appendEventPayload(nil, ev))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(rec.event.Error) != maxWALString {
		t.Fatalf("error string not truncated: %d bytes", len(rec.event.Error))
	}
}

func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})

	spec := testSpec("c1")
	if err := w.Begin(spec); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Begin(spec); err == nil {
		t.Fatal("Begin twice for one campaign should fail")
	}
	if err := w.Append("c1", testEvent(1, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Append("c1", testEvent(2, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.Seal("c1", Seal{State: "done", Completed: 2}); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if err := w.Append("c1", testEvent(3, 0)); err == nil {
		t.Fatal("Append after Seal should fail")
	}

	logs, err := w.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(logs) != 1 {
		t.Fatalf("Recover: %d logs", len(logs))
	}
	lg := logs[0]
	if !reflect.DeepEqual(lg.Spec, spec) {
		t.Fatalf("spec mismatch: %+v", lg.Spec)
	}
	if len(lg.Events) != 2 || lg.Events[0].Seq != 1 || lg.Events[1].Seq != 2 {
		t.Fatalf("events: %+v", lg.Events)
	}
	if lg.Seal == nil || lg.Seal.State != "done" || lg.Seal.Completed != 2 {
		t.Fatalf("seal: %+v", lg.Seal)
	}
	if lg.Truncated || lg.Canceled {
		t.Fatalf("unexpected flags: %+v", lg)
	}

	w.Remove("c1")
	if _, err := os.Stat(filepath.Join(dir, "c1.wal")); !os.IsNotExist(err) {
		t.Fatalf("log not removed: %v", err)
	}
}

func TestRecoverOrdersAndCancel(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncOff})
	// Create out of numeric order; c10 > c2 must still sort numerically.
	for _, id := range []string{"c10", "c2"} {
		if err := w.Begin(testSpec(id)); err != nil {
			t.Fatalf("Begin %s: %v", id, err)
		}
	}
	if err := w.CancelMark("c2"); err != nil {
		t.Fatalf("CancelMark: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := openTest(t, dir, SyncPolicy{Mode: SyncOff})
	logs, err := w2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(logs) != 2 || logs[0].Spec.ID != "c2" || logs[1].Spec.ID != "c10" {
		t.Fatalf("order: %+v", logs)
	}
	if !logs[0].Canceled || logs[1].Canceled {
		t.Fatalf("cancel flags: %+v", logs)
	}
}

func TestResumeAppends(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Append("c1", testEvent(1, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()

	w2 := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	if _, err := w2.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := w2.Resume("c1"); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := w2.Append("c1", testEvent(2, 1)); err != nil {
		t.Fatalf("Append after Resume: %v", err)
	}
	if err := w2.Seal("c1", Seal{State: "done", Completed: 2}); err != nil {
		t.Fatalf("Seal: %v", err)
	}

	logs, err := w2.Recover()
	if err != nil {
		t.Fatalf("second Recover: %v", err)
	}
	if len(logs) != 1 || len(logs[0].Events) != 2 || logs[0].Seal == nil {
		t.Fatalf("resumed log: %+v", logs)
	}
}

// corruptAt flips one bit of the file at the given offset from the end
// (negative) or start (positive).
func corruptAt(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Append("c1", testEvent(1, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	path := filepath.Join(dir, "c1.wal")
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := fi.Size()
	if err := w.Append("c1", testEvent(2, 1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()

	// Cut the last record in half: a torn write.
	fi, _ = os.Stat(path)
	if err := os.Truncate(path, (goodSize+fi.Size())/2); err != nil {
		t.Fatal(err)
	}

	w2 := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	logs, err := w2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(logs) != 1 || !logs[0].Truncated {
		t.Fatalf("want one truncated log: %+v", logs)
	}
	if len(logs[0].Events) != 1 || logs[0].Events[0].Seq != 1 {
		t.Fatalf("events after truncation: %+v", logs[0].Events)
	}
	// The tail must be physically gone: a second recovery is clean.
	fi, _ = os.Stat(path)
	if fi.Size() != goodSize {
		t.Fatalf("file not truncated to %d: %d", goodSize, fi.Size())
	}
	logs, err = w2.Recover()
	if err != nil || len(logs) != 1 || logs[0].Truncated {
		t.Fatalf("second Recover not clean: %v %+v", err, logs)
	}
}

func TestTornTailChecksum(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Append("c1", testEvent(1, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()

	// Flip a bit inside the final record's payload: checksum fails at
	// EOF, which is indistinguishable from a torn write — truncate.
	path := filepath.Join(dir, "c1.wal")
	corruptAt(t, path, -10)

	w2 := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	logs, err := w2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(logs) != 1 || !logs[0].Truncated || len(logs[0].Events) != 0 {
		t.Fatalf("want truncated log with no events: %+v", logs)
	}
}

func TestCorruptInteriorRefusesBoot(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	spec := testSpec("c1")
	if err := w.Begin(spec); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append("c1", testEvent(int64(i+1), i)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()

	// Flip a bit inside the spec record — well before the tail.
	path := filepath.Join(dir, "c1.wal")
	corruptAt(t, path, 20)

	w2 := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	_, err := w2.Recover()
	if err == nil {
		t.Fatal("Recover accepted interior corruption")
	}
	if !strings.Contains(err.Error(), "c1.wal") || !strings.Contains(err.Error(), "offset") {
		t.Fatalf("error should name file and offset: %v", err)
	}
}

func TestRecoverSkipsEmptyAndRefusesGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "c3.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	logs, err := w.Recover()
	if err != nil || len(logs) != 0 {
		t.Fatalf("empty file should be skipped: %v %+v", err, logs)
	}
	if _, err := os.Stat(filepath.Join(dir, "c3.wal")); !os.IsNotExist(err) {
		t.Fatal("empty log not cleaned up")
	}

	if err := os.WriteFile(filepath.Join(dir, "c4.wal"), []byte("not a log at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Recover(); err == nil {
		t.Fatal("garbage file should refuse boot")
	}
}

func TestRecoverRefusesRenamedLog(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	w.Close()
	if err := os.Rename(filepath.Join(dir, "c1.wal"), filepath.Join(dir, "c9.wal")); err != nil {
		t.Fatal(err)
	}
	w2 := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	if _, err := w2.Recover(); err == nil {
		t.Fatal("renamed log should refuse boot")
	}
}

func TestIntervalSyncMarksClean(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncInterval, Interval: 10 * time.Millisecond})
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Append("c1", testEvent(1, 0)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		lf := w.files["c1"]
		w.mu.Unlock()
		lf.mu.Lock()
		dirty := lf.dirty
		lf.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never flushed the dirty log")
		}
		time.Sleep(time.Millisecond)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestNormalizeEvents(t *testing.T) {
	evs := []EventRecord{
		{Seq: 2, Index: 1}, {Seq: 1, Index: 0}, {Seq: 2, Index: 5},
		{Seq: 3, Index: 2}, {Seq: 5, Index: 4},
	}
	out := normalizeEvents(evs)
	if len(out) != 3 {
		t.Fatalf("want contiguous prefix of 3, got %+v", out)
	}
	if out[0].Seq != 1 || out[1].Seq != 2 || out[2].Seq != 3 {
		t.Fatalf("bad order: %+v", out)
	}
	if out[1].Index != 5 {
		t.Fatalf("duplicate seq should keep last write: %+v", out[1])
	}
	if normalizeEvents(nil) != nil {
		t.Fatal("nil in, nil out")
	}
	if got := normalizeEvents([]EventRecord{{Seq: 7}}); got != nil {
		t.Fatalf("gap at start should drop all: %+v", got)
	}
}

func TestNilWALIsNoOp(t *testing.T) {
	var w *WAL
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("c1", testEvent(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.CancelMark("c1"); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal("c1", Seal{}); err != nil {
		t.Fatal(err)
	}
	w.Remove("c1")
	w.NoteRecovered("done")
	if logs, err := w.Recover(); err != nil || logs != nil {
		t.Fatal("nil Recover should be empty")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBadCampaignID(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncAlways})
	for _, id := range []string{"", "../evil", "a/b", "."} {
		spec := testSpec(id)
		if err := w.Begin(spec); err == nil {
			t.Errorf("Begin(%q) should fail", id)
		}
	}
}

// TestSchemeRecords: scheme records round-trip in id order, with and
// without a design, are written under SyncOff too, and are deleted by
// RemoveScheme; an id is written once. A scheme file that is renamed,
// holds another record kind, or has bytes after its record refuses
// boot, and campaign recovery ignores scheme files.
func TestSchemeRecords(t *testing.T) {
	dir := t.TempDir()
	w := openTest(t, dir, SyncPolicy{Mode: SyncOff})
	want := []SchemeRecord{
		{ID: "s2", Ref: `{"design":"random-regular","n":64,"m":32}`},
		{ID: "s10", Ref: `{"design":"uploaded","n":4,"m":1,"ad_hoc":true}`, Design: []byte("pd\x01\x04\x01\x01\x01\x01")},
		{ID: "s3", Ref: `{"design":"bernoulli","n":8,"m":4}`},
	}
	for _, rec := range want {
		if err := w.PutScheme(rec); err != nil {
			t.Fatalf("PutScheme(%s): %v", rec.ID, err)
		}
	}
	if err := w.PutScheme(want[0]); err == nil {
		t.Fatal("a second record for s2 was accepted")
	}
	if err := w.Begin(testSpec("c1")); err != nil {
		t.Fatal(err)
	}
	w.RemoveScheme("s3")
	got, err := w.RecoverSchemes()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []SchemeRecord{want[0], want[1]}) {
		t.Fatalf("recovered %+v, want s2 then s10", got)
	}
	if logs, err := w.Recover(); err != nil || len(logs) != 1 {
		t.Fatalf("campaign recovery beside scheme files: %d logs, %v", len(logs), err)
	}

	good, err := os.ReadFile(filepath.Join(dir, "s2.scheme"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := os.ReadFile(filepath.Join(dir, "c1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	// A scheme file is written whole and fsynced before it is
	// acknowledged, so a complete record that fails its checksum or its
	// parse is corruption, not a torn write, even as the last record.
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-8] ^= 0x01
	unparseable := appendRecord(append([]byte(nil), fileHeader[:]...), []byte{byte(recScheme)})
	for name, c := range map[string]struct {
		file string
		data []byte
		want string
	}{
		"renamed":        {"s7.scheme", good, "file renamed"},
		"campaign spec":  {"s7.scheme", spec, "want scheme"},
		"trailing bytes": {"s2.scheme", append(append([]byte(nil), good...), 0), "bytes after the scheme record"},
		"flipped bit":    {"s2.scheme", flipped, "corrupt record at offset 5: checksum mismatch"},
		"unparseable":    {"s2.scheme", unparseable, "corrupt record at offset 5"},
	} {
		d := t.TempDir()
		path := filepath.Join(d, c.file)
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openTest(t, d, SyncPolicy{}).RecoverSchemes(); err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), c.file) {
			t.Errorf("%s: err = %v, want it to name %s and mention %q", name, err, c.file, c.want)
		}
		if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, c.data) {
			t.Errorf("%s: the refused file was not left in place: %v", name, err)
		}
	}
}
