package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// On-disk record encoding. A journal file — a campaign log or a scheme
// record — is a 5-byte file header ("pwal" + version byte) followed by
// a sequence of records, each framed as
//
//	uvarint(len(payload)) | payload | crc32c(payload) little-endian
//
// The payload begins with a one-byte record kind and uses the same
// varint framing discipline as internal/remote/frame.go: every claimed
// length is validated against the bytes actually remaining before any
// allocation, so a truncated, bit-flipped, or hostile log fails with a
// clean error and bounded allocation — never a panic or an
// attacker-sized make(). The full layout and its compatibility rules
// are specified in docs/durability.md.

const (
	walVersion = 1

	recSpec   byte = 1 // campaign spec: first record of every log
	recEvent  byte = 2 // one settled job
	recCancel byte = 3 // cancellation requested (log stays open)
	recSeal   byte = 4 // terminal: campaign reached a final state
	recScheme byte = 5 // scheme registry entry: the one record of a scheme file
)

// fileHeader opens every log file.
var fileHeader = [5]byte{'p', 'w', 'a', 'l', walVersion}

// castagnoli is the CRC32C polynomial table (same checksum family used
// by ext4 journals and RocksDB WALs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Parser allocation bounds. A record that claims more than these is
// rejected before any allocation happens.
const (
	maxWALString  = 4096    // any string field (writers truncate errors)
	maxWALJobs    = 1 << 20 // jobs per campaign
	maxWALCounts  = 1 << 24 // pooled counts per job (columns of y)
	maxWALSupport = 1 << 24 // support indices per event
	maxWALRecord  = 1 << 30 // total payload bytes
)

// Status classifies a settled job inside an event record, mirroring the
// completed/failed/canceled split campaign.Campaign tracks.
type Status byte

const (
	StatusCompleted Status = 0
	StatusFailed    Status = 1
	StatusCanceled  Status = 2
)

// CampaignSpec is the first record of every log: everything needed to
// rebuild the campaign and re-dispatch its jobs after a crash. The
// scheme is referenced, not embedded — SchemeRef is an opaque string
// the frontend resolves back to an *engine.Scheme at recovery time
// (seeded schemes rebuild deterministically; ad-hoc uploads resolve
// through the scheme registry, replayed from scheme records first).
type CampaignSpec struct {
	ID        string
	Tenant    string
	TraceID   string
	SchemeRef string
	Noise     string // noise.Model.String() compact form; noise.Parse inverse
	Decoder   string // decoder.Name(); "" means server default policy
	K         int
	Batch     [][]int64
}

// EventRecord journals one settled job. Seq is the campaign event-log
// sequence number the settle was assigned, so SSE Last-Event-ID resume
// stays exact across a restart.
type EventRecord struct {
	Seq        int64
	Index      int
	Status     Status
	Decoder    string
	Error      string
	Residual   int64
	Consistent bool
	DecodeNS   int64
	Support    []int
}

// Seal is the terminal record: the campaign reached a final state and
// the log is complete.
type Seal struct {
	State     string // done | canceled | expired
	Completed int
	Failed    int
	Canceled  int
}

// SchemeRecord journals one scheme registry entry: its id, the
// frontend's opaque scheme ref, and, for ad-hoc uploads only, the design
// itself in package graph's binary form. Parametric schemes carry no
// design; they rebuild from the ref.
type SchemeRecord struct {
	ID     string
	Ref    string
	Design []byte
}

// truncString bounds a string field before encoding. Only error
// messages can realistically exceed the cap; cutting them keeps every
// written record parseable.
func truncString(s string) string {
	if len(s) > maxWALString {
		return s[:maxWALString]
	}
	return s
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	s = truncString(s)
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendSpecPayload encodes a spec record payload.
func appendSpecPayload(buf []byte, spec CampaignSpec) []byte {
	buf = append(buf, recSpec)
	for _, s := range []string{spec.ID, spec.Tenant, spec.TraceID, spec.SchemeRef, spec.Noise, spec.Decoder} {
		buf = appendString(buf, s)
	}
	buf = appendUvarint(buf, uint64(spec.K))
	buf = appendUvarint(buf, uint64(len(spec.Batch)))
	m := 0
	if len(spec.Batch) > 0 {
		m = len(spec.Batch[0])
	}
	buf = appendUvarint(buf, uint64(m))
	for _, y := range spec.Batch {
		for _, v := range y {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	return buf
}

// appendEventPayload encodes an event record payload. Supports are
// written as raw uvarints (not delta-encoded like the shard protocol):
// a crashed writer may leave anything on disk, and raw values round-trip
// even if a decoder ever returns an unsorted support.
func appendEventPayload(buf []byte, ev EventRecord) []byte {
	buf = append(buf, recEvent)
	buf = appendUvarint(buf, uint64(ev.Seq))
	buf = appendUvarint(buf, uint64(ev.Index))
	buf = append(buf, byte(ev.Status))
	buf = appendString(buf, ev.Decoder)
	buf = appendString(buf, ev.Error)
	buf = binary.AppendVarint(buf, ev.Residual)
	if ev.Consistent {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendUvarint(buf, uint64(ev.DecodeNS))
	buf = appendUvarint(buf, uint64(len(ev.Support)))
	for _, s := range ev.Support {
		buf = appendUvarint(buf, uint64(s))
	}
	return buf
}

func appendCancelPayload(buf []byte) []byte {
	return append(buf, recCancel)
}

func appendSealPayload(buf []byte, s Seal) []byte {
	buf = append(buf, recSeal)
	buf = appendString(buf, s.State)
	buf = appendUvarint(buf, uint64(s.Completed))
	buf = appendUvarint(buf, uint64(s.Failed))
	buf = appendUvarint(buf, uint64(s.Canceled))
	return buf
}

func appendSchemePayload(buf []byte, s SchemeRecord) []byte {
	buf = append(buf, recScheme)
	buf = appendString(buf, s.ID)
	buf = appendString(buf, s.Ref)
	buf = appendUvarint(buf, uint64(len(s.Design)))
	return append(buf, s.Design...)
}

// appendRecord frames a payload: length prefix, payload, CRC32C.
func appendRecord(buf, payload []byte) []byte {
	buf = appendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// record is one parsed payload; exactly one of the kind-specific fields
// is meaningful.
type record struct {
	kind   byte
	spec   CampaignSpec
	event  EventRecord
	seal   Seal
	scheme SchemeRecord
}

// payloadReader walks a record payload with bounds-checked reads.
type payloadReader struct {
	data []byte
	pos  int
}

func (pr *payloadReader) remaining() int { return len(pr.data) - pr.pos }

func (pr *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(pr.data[pr.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: record truncated or varint overflow at byte %d", pr.pos)
	}
	pr.pos += n
	return v, nil
}

// bounded reads a uvarint and refuses it above limit; what names the
// field in the error.
func (pr *payloadReader) bounded(what string, limit uint64) (uint64, error) {
	v, err := pr.uvarint()
	if err == nil && v > limit {
		err = fmt.Errorf("wal: record claims %s %d, limit %d", what, v, limit)
	}
	return v, err
}

func (pr *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(pr.data[pr.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("wal: record truncated or varint overflow at byte %d", pr.pos)
	}
	pr.pos += n
	return v, nil
}

func (pr *payloadReader) byte() (byte, error) {
	if pr.remaining() < 1 {
		return 0, fmt.Errorf("wal: record truncated at byte %d", pr.pos)
	}
	b := pr.data[pr.pos]
	pr.pos++
	return b, nil
}

func (pr *payloadReader) str() (string, error) {
	n, err := pr.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxWALString {
		return "", fmt.Errorf("wal: record string of %d bytes exceeds limit %d", n, maxWALString)
	}
	if int(n) > pr.remaining() {
		return "", fmt.Errorf("wal: record string of %d bytes exceeds remaining %d", n, pr.remaining())
	}
	s := string(pr.data[pr.pos : pr.pos+int(n)])
	pr.pos += int(n)
	return s, nil
}

// strs reads consecutive string fields into dst.
func (pr *payloadReader) strs(dst ...*string) error {
	for _, d := range dst {
		s, err := pr.str()
		if err != nil {
			return err
		}
		*d = s
	}
	return nil
}

// parsePayload decodes one record payload (kind byte onward; the length
// prefix and CRC are the framer's business).
func parsePayload(data []byte) (record, error) {
	pr := &payloadReader{data: data}
	kind, err := pr.byte()
	if err != nil {
		return record{}, err
	}
	rec := record{kind: kind}
	switch kind {
	case recSpec:
		rec.spec, err = pr.parseSpec()
	case recEvent:
		rec.event, err = pr.parseEvent()
	case recCancel:
		// no fields
	case recSeal:
		rec.seal, err = pr.parseSeal()
	case recScheme:
		rec.scheme, err = pr.parseScheme()
	default:
		return record{}, fmt.Errorf("wal: unknown record kind %d", kind)
	}
	if err != nil {
		return record{}, err
	}
	if pr.remaining() != 0 {
		return record{}, fmt.Errorf("wal: %d trailing bytes after record", pr.remaining())
	}
	return rec, nil
}

func (pr *payloadReader) parseSpec() (CampaignSpec, error) {
	var spec CampaignSpec
	if err := pr.strs(&spec.ID, &spec.Tenant, &spec.TraceID, &spec.SchemeRef, &spec.Noise, &spec.Decoder); err != nil {
		return spec, err
	}
	k, err := pr.bounded("k", math.MaxInt32)
	if err != nil {
		return spec, err
	}
	spec.K = int(k)
	jobs, err := pr.bounded("jobs", maxWALJobs)
	if err != nil {
		return spec, err
	}
	m, err := pr.bounded("counts per job", maxWALCounts)
	if err != nil {
		return spec, err
	}
	// Bound the total before allocating: jobs*m*8 must fit in what is
	// actually here (both factors are already capped well below overflow).
	if need := jobs * m * 8; need > uint64(pr.remaining()) {
		return spec, fmt.Errorf("wal: spec claims %d batch bytes, %d remain", need, pr.remaining())
	}
	spec.Batch = make([][]int64, jobs)
	for i := range spec.Batch {
		y := make([]int64, m)
		for p := range y {
			y[p] = int64(binary.LittleEndian.Uint64(pr.data[pr.pos:]))
			pr.pos += 8
		}
		spec.Batch[i] = y
	}
	return spec, nil
}

func (pr *payloadReader) parseEvent() (EventRecord, error) {
	var ev EventRecord
	seq, err := pr.bounded("seq", math.MaxInt64)
	if err != nil {
		return ev, err
	}
	ev.Seq = int64(seq)
	idx, err := pr.bounded("job index", maxWALJobs-1)
	if err != nil {
		return ev, err
	}
	ev.Index = int(idx)
	st, err := pr.byte()
	if err != nil {
		return ev, err
	}
	if st > byte(StatusCanceled) {
		return ev, fmt.Errorf("wal: event has unknown status %d", st)
	}
	ev.Status = Status(st)
	if err = pr.strs(&ev.Decoder, &ev.Error); err != nil {
		return ev, err
	}
	if ev.Residual, err = pr.varint(); err != nil {
		return ev, err
	}
	c, err := pr.byte()
	if err != nil {
		return ev, err
	}
	if c > 1 {
		return ev, fmt.Errorf("wal: event has bool byte %d", c)
	}
	ev.Consistent = c == 1
	ns, err := pr.bounded("decode ns", math.MaxInt64)
	if err != nil {
		return ev, err
	}
	ev.DecodeNS = int64(ns)
	slen, err := pr.uvarint()
	if err != nil {
		return ev, err
	}
	// Each support index costs at least one byte on disk.
	if slen > maxWALSupport || int(slen) > pr.remaining() {
		return ev, fmt.Errorf("wal: event claims support of %d, %d bytes remain", slen, pr.remaining())
	}
	if slen > 0 {
		ev.Support = make([]int, slen)
		for p := range ev.Support {
			v, err := pr.bounded("support index", math.MaxInt32)
			if err != nil {
				return ev, err
			}
			ev.Support[p] = int(v)
		}
	}
	return ev, nil
}

func (pr *payloadReader) parseSeal() (Seal, error) {
	var s Seal
	var err error
	if s.State, err = pr.str(); err != nil {
		return s, err
	}
	counts := [3]*int{&s.Completed, &s.Failed, &s.Canceled}
	for _, dst := range counts {
		v, err := pr.bounded("seal count", maxWALJobs)
		if err != nil {
			return s, err
		}
		*dst = int(v)
	}
	return s, nil
}

// parseScheme reads a scheme record. The design aliases the payload:
// it is as large as the record, so it is not copied.
func (pr *payloadReader) parseScheme() (SchemeRecord, error) {
	var s SchemeRecord
	if err := pr.strs(&s.ID, &s.Ref); err != nil {
		return s, err
	}
	n, err := pr.uvarint()
	if err == nil && n > uint64(pr.remaining()) {
		err = fmt.Errorf("wal: scheme record claims a %d-byte design, %d bytes remain", n, pr.remaining())
	}
	if err != nil || n == 0 {
		return s, err
	}
	end := pr.pos + int(n)
	s.Design, pr.pos = pr.data[pr.pos:end:end], end
	return s, nil
}
