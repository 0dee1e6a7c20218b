package remote

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary shard framing. POST /shard/v1/decode-batch carries one or more
// decode jobs in one length-prefixed binary frame, and the response
// carries one status-tagged result per job. PUT /shard/v1/schemes/{id}
// carries one design in its binary form, which package graph writes and
// reads (Bipartite.AppendBinary, graph.ParseBinary). Every frame is
// versioned by a leading magic+version triplet and uses unsigned varints
// for every length and small integer, with y-vectors as raw
// little-endian int64s — the frame layouts and compatibility rules are
// specified in docs/shard-protocol.md.
//
// Every parse validates claimed lengths against the bytes actually
// remaining before allocating, so truncated, oversized, or garbage
// frames fail with a clean error and bounded allocation — never a panic
// or an attacker-sized make().

const (
	// batchMediaType names the framing in Content-Type/Accept; the frame
	// itself carries the version byte.
	batchMediaType = "application/x-pooled-batch"

	// designMediaType names a design's binary form as an install body;
	// workers answer 415 to any other.
	designMediaType = "application/x-pooled-design"

	// frameVersion is the batch frames' layout version; a design's
	// binary form carries graph's own.
	frameVersion = 1
)

// Frame magics: requests and responses are distinguishable on sight.
var (
	batchRequestMagic  = [2]byte{'p', 'b'}
	batchResponseMagic = [2]byte{'p', 'r'}
)

// Parser allocation bounds. A frame that claims more than these is
// rejected before any allocation happens.
const (
	maxBatchJobs   = 1024
	maxFrameString = 4096
	maxFrameY      = 1 << 24
	maxSupportLen  = 1 << 24
)

// batchJob is one decode job inside a request frame. Noise travels in
// the compact colon form ("gaussian:0.5:7") shared with the CSV decode
// path; Decoder is an engine.DecoderByName name, empty for the noise
// policy's server-side pick; Trace carries the frontend's per-job trace
// id across the hop, so worker logs correlate with frontend logs.
type batchJob struct {
	Scheme  string
	Noise   string
	Decoder string
	Trace   string
	K       int
	Y       []int64
}

// Per-job response statuses. A worker that admits frames whole never
// sends batchSaturated; it stays in the v1 grammar, and a client treats
// it as transient like batchUnavailable.
const (
	batchOK          byte = 0 // result payload follows
	batchNotFound    byte = 1 // unknown scheme: re-install and retry
	batchSaturated   byte = 2 // queue full (older workers): retry
	batchDecodeErr   byte = 3 // decode failed: terminal
	batchBadRequest  byte = 4 // malformed job: terminal
	batchUnavailable byte = 5 // transient worker-side failure: retry
)

// batchResult is one job's outcome inside a response frame.
type batchResult struct {
	Status     byte
	Err        string // non-OK statuses
	Decoder    string
	Residual   int64
	Consistent bool
	QueueNS    int64
	DecodeNS   int64
	Support    []int
}

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBatchRequest encodes jobs into buf (appending) and returns the
// extended slice.
func appendBatchRequest(buf []byte, jobs []batchJob) []byte {
	buf = append(buf, batchRequestMagic[0], batchRequestMagic[1], frameVersion)
	buf = appendUvarint(buf, uint64(len(jobs)))
	for i := range jobs {
		j := &jobs[i]
		buf = appendString(buf, j.Scheme)
		buf = appendString(buf, j.Noise)
		buf = appendString(buf, j.Decoder)
		buf = appendString(buf, j.Trace)
		buf = appendUvarint(buf, uint64(j.K))
		buf = appendUvarint(buf, uint64(len(j.Y)))
		for _, v := range j.Y {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	return buf
}

// appendBatchResponse encodes results into buf and returns the extended
// slice. OK supports are delta-encoded: the support is sorted ascending,
// so gaps are small and varint-dense.
func appendBatchResponse(buf []byte, results []batchResult) []byte {
	buf = append(buf, batchResponseMagic[0], batchResponseMagic[1], frameVersion)
	buf = appendUvarint(buf, uint64(len(results)))
	for i := range results {
		r := &results[i]
		buf = append(buf, r.Status)
		if r.Status != batchOK {
			buf = appendString(buf, r.Err)
			continue
		}
		buf = appendString(buf, r.Decoder)
		buf = binary.AppendVarint(buf, r.Residual)
		if r.Consistent {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendUvarint(buf, uint64(r.QueueNS))
		buf = appendUvarint(buf, uint64(r.DecodeNS))
		buf = appendUvarint(buf, uint64(len(r.Support)))
		prev := 0
		for _, s := range r.Support {
			buf = appendUvarint(buf, uint64(s-prev))
			prev = s
		}
	}
	return buf
}

// frameReader walks a received frame with bounds-checked reads.
type frameReader struct {
	data []byte
	pos  int
}

func (fr *frameReader) remaining() int { return len(fr.data) - fr.pos }

func (fr *frameReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(fr.data[fr.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("remote: frame truncated or varint overflow at byte %d", fr.pos)
	}
	fr.pos += n
	return v, nil
}

func (fr *frameReader) varint() (int64, error) {
	v, n := binary.Varint(fr.data[fr.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("remote: frame truncated or varint overflow at byte %d", fr.pos)
	}
	fr.pos += n
	return v, nil
}

func (fr *frameReader) byte() (byte, error) {
	if fr.remaining() < 1 {
		return 0, fmt.Errorf("remote: frame truncated at byte %d", fr.pos)
	}
	b := fr.data[fr.pos]
	fr.pos++
	return b, nil
}

func (fr *frameReader) str() (string, error) {
	n, err := fr.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxFrameString {
		return "", fmt.Errorf("remote: frame string of %d bytes exceeds limit %d", n, maxFrameString)
	}
	if int(n) > fr.remaining() {
		return "", fmt.Errorf("remote: frame string of %d bytes exceeds remaining %d", n, fr.remaining())
	}
	s := string(fr.data[fr.pos : fr.pos+int(n)])
	fr.pos += int(n)
	return s, nil
}

// prelude consumes and checks the magic+version triplet.
func (fr *frameReader) prelude(magic [2]byte) error {
	if fr.remaining() < 3 {
		return fmt.Errorf("remote: frame shorter than its header")
	}
	if fr.data[fr.pos] != magic[0] || fr.data[fr.pos+1] != magic[1] {
		return fmt.Errorf("remote: bad frame magic %q", fr.data[fr.pos:fr.pos+2])
	}
	version := int(fr.data[fr.pos+2])
	fr.pos += 3
	if version != frameVersion {
		return fmt.Errorf("remote: unsupported frame version %d (have %d)", version, frameVersion)
	}
	return nil
}

func (fr *frameReader) header(magic [2]byte) (int, error) {
	if err := fr.prelude(magic); err != nil {
		return 0, err
	}
	count, err := fr.uvarint()
	if err != nil {
		return 0, err
	}
	if count > maxBatchJobs {
		return 0, fmt.Errorf("remote: frame claims %d jobs, limit %d", count, maxBatchJobs)
	}
	return int(count), nil
}

// job decodes one request-frame job at the cursor. Allocation is
// bounded by the frame's actual size: the y-length is validated against
// the bytes remaining before the slice is made.
func (fr *frameReader) job(i int) (batchJob, error) {
	var j batchJob
	var err error
	if j.Scheme, err = fr.str(); err != nil {
		return j, err
	}
	if j.Noise, err = fr.str(); err != nil {
		return j, err
	}
	if j.Decoder, err = fr.str(); err != nil {
		return j, err
	}
	if j.Trace, err = fr.str(); err != nil {
		return j, err
	}
	k, err := fr.uvarint()
	if err != nil {
		return j, err
	}
	if k > math.MaxInt32 {
		return j, fmt.Errorf("remote: frame job %d claims k=%d", i, k)
	}
	j.K = int(k)
	ylen, err := fr.uvarint()
	if err != nil {
		return j, err
	}
	if ylen > maxFrameY || int(ylen)*8 > fr.remaining() {
		return j, fmt.Errorf("remote: frame job %d claims y of %d values, %d bytes remain", i, ylen, fr.remaining())
	}
	j.Y = make([]int64, ylen)
	for p := range j.Y {
		j.Y[p] = int64(binary.LittleEndian.Uint64(fr.data[fr.pos:]))
		fr.pos += 8
	}
	return j, nil
}

// parseBatchRequest decodes a whole request frame at once (the
// streaming consumer is the server, which submits each job as it
// parses).
func parseBatchRequest(data []byte) ([]batchJob, error) {
	fr := &frameReader{data: data}
	count, err := fr.header(batchRequestMagic)
	if err != nil {
		return nil, err
	}
	jobs := make([]batchJob, count)
	for i := range jobs {
		if jobs[i], err = fr.job(i); err != nil {
			return nil, err
		}
	}
	if fr.remaining() != 0 {
		return nil, fmt.Errorf("remote: %d trailing bytes after request frame", fr.remaining())
	}
	return jobs, nil
}

// parseBatchResponse decodes a response frame under the same bounds.
func parseBatchResponse(data []byte) ([]batchResult, error) {
	fr := &frameReader{data: data}
	count, err := fr.header(batchResponseMagic)
	if err != nil {
		return nil, err
	}
	results := make([]batchResult, count)
	for i := range results {
		r := &results[i]
		if r.Status, err = fr.byte(); err != nil {
			return nil, err
		}
		if r.Status > batchUnavailable {
			return nil, fmt.Errorf("remote: frame result %d has unknown status %d", i, r.Status)
		}
		if r.Status != batchOK {
			if r.Err, err = fr.str(); err != nil {
				return nil, err
			}
			continue
		}
		if r.Decoder, err = fr.str(); err != nil {
			return nil, err
		}
		if r.Residual, err = fr.varint(); err != nil {
			return nil, err
		}
		c, err := fr.byte()
		if err != nil {
			return nil, err
		}
		if c > 1 {
			return nil, fmt.Errorf("remote: frame result %d has bool byte %d", i, c)
		}
		r.Consistent = c == 1
		q, err := fr.uvarint()
		if err != nil {
			return nil, err
		}
		d, err := fr.uvarint()
		if err != nil {
			return nil, err
		}
		if q > math.MaxInt64 || d > math.MaxInt64 {
			return nil, fmt.Errorf("remote: frame result %d has out-of-range timings", i)
		}
		r.QueueNS, r.DecodeNS = int64(q), int64(d)
		slen, err := fr.uvarint()
		if err != nil {
			return nil, err
		}
		// Each support gap costs at least one byte on the wire.
		if slen > maxSupportLen || int(slen) > fr.remaining() {
			return nil, fmt.Errorf("remote: frame result %d claims support of %d, %d bytes remain", i, slen, fr.remaining())
		}
		if slen > 0 {
			r.Support = make([]int, slen)
			prev := uint64(0)
			for p := range r.Support {
				gap, err := fr.uvarint()
				if err != nil {
					return nil, err
				}
				prev += gap
				if prev > math.MaxInt32 {
					return nil, fmt.Errorf("remote: frame result %d support overflows", i)
				}
				r.Support[p] = int(prev)
			}
		}
	}
	if fr.remaining() != 0 {
		return nil, fmt.Errorf("remote: %d trailing bytes after response frame", fr.remaining())
	}
	return results, nil
}
