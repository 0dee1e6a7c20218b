package remote

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"

	"pooleddata/internal/graph"
)

// Binary shard framing. POST /shard/v1/decode-batch carries one or more
// decode jobs in one length-prefixed binary frame, and the response
// carries one status-tagged result per job. PUT /shard/v1/schemes/{id}
// carries one design as a delta-coded CSR frame. Every frame is versioned
// by a leading magic+version triplet and uses unsigned varints for every
// length and small integer, with y-vectors as raw little-endian int64s —
// the frame layouts and compatibility rules are specified in
// docs/shard-protocol.md.
//
// Every parse validates claimed lengths against the bytes actually
// remaining before allocating, so truncated, oversized, or garbage
// frames fail with a clean error and bounded allocation — never a panic
// or an attacker-sized make().

const (
	// batchMediaType names the framing in Content-Type/Accept; the frame
	// itself carries the version byte.
	batchMediaType = "application/x-pooled-batch"

	// designMediaType names the design install framing; workers answer
	// 415 to any other install body.
	designMediaType = "application/x-pooled-design"

	// frameVersion is the current frame layout version.
	frameVersion = 1
)

// Frame magics: requests and responses are distinguishable on sight.
var (
	batchRequestMagic  = [2]byte{'p', 'b'}
	batchResponseMagic = [2]byte{'p', 'r'}
	designMagic        = [2]byte{'p', 'd'}
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

// AppendDesign encodes g as a design frame — the body of a worker
// install, and the form a frontend journals an ad-hoc upload in: n, m,
// then per query its distinct-entry count and (entry delta,
// multiplicity) pairs. Entries are strictly increasing within a query,
// so every delta is >= 1 and — for the paper's dense designs — one
// byte, as is every multiplicity. Query records are independent, so a
// large design is encoded as one range of queries per CPU, each
// streamed by the graph's visitor into its own buffer, and the buffers
// are joined in query order.
func AppendDesign(buf []byte, g *graph.Bipartite) []byte {
	m := g.M()
	buf = slices.Grow(buf, 3+2*binary.MaxVarintLen64+m*binary.MaxVarintLen32+2*int(g.DistinctPairs()))
	buf = append(buf, designMagic[0], designMagic[1], frameVersion)
	buf = appendUvarint(buf, uint64(g.N()))
	buf = appendUvarint(buf, uint64(m))
	parts := 1
	if g.DistinctPairs() >= parallelDesignPairs {
		parts = max(1, min(runtime.GOMAXPROCS(0), m))
	}
	tails := make([][]byte, parts)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			size := 0
			for j := lo; j < hi; j++ {
				size += binary.MaxVarintLen32 + 2*g.QueryDistinct(j)
			}
			tails[p] = appendQueries(make([]byte, 0, size), g, lo, hi)
		}(p*m/parts, (p+1)*m/parts)
	}
	buf = appendQueries(buf, g, 0, m/parts)
	wg.Wait()
	for _, tail := range tails[1:] {
		buf = append(buf, tail...)
	}
	return buf
}

// parallelDesignPairs is the design size, in distinct pairs, from which
// design frames are encoded and parsed on every CPU.
const parallelDesignPairs = 1 << 16

// appendQueries appends the design-frame records of queries [lo, hi).
func appendQueries(buf []byte, g *graph.Bipartite, lo, hi int) []byte {
	g.ForEachQuery(lo, hi, func(_ int, ent, mul []int32) error {
		buf = appendUvarint(buf, uint64(len(ent)))
		prev := int32(-1)
		for p, e := range ent {
			if delta, mu := uint32(e-prev), uint32(mul[p]); delta|mu < 0x80 {
				// Dense designs: one byte each.
				buf = append(buf, byte(delta), byte(mu))
			} else {
				buf = appendUvarint(buf, uint64(delta))
				buf = appendUvarint(buf, uint64(mu))
			}
			prev = e
		}
		return nil
	})
	return buf
}

// skipVarints returns the offset just past the k varints that start at
// data[pos:], or -1 if data ends first. Every byte with its high bit
// clear ends one varint, so whole words are skipped by counting those
// bytes while the k-th end lies beyond them.
func skipVarints(data []byte, pos int, k uint64) int {
	for k > 8 && pos+8 <= len(data) {
		ends := uint64(bits.OnesCount64(^binary.LittleEndian.Uint64(data[pos:]) & 0x8080808080808080))
		if ends >= k {
			break
		}
		k -= ends
		pos += 8
	}
	for ; k > 0; k-- {
		for pos < len(data) && data[pos] >= 0x80 {
			pos++
		}
		if pos == len(data) {
			return -1
		}
		pos++
	}
	return pos
}

// ParseDesign decodes a design frame into a graph. A first walk finds
// where each query's record starts: it checks every claimed count
// against the bytes remaining before using it (a query costs at least its
// one-byte count and a pair at least two bytes) and skips the record's
// varints without decoding them. The records are then decoded, on every
// CPU for large frames, in the two passes of graph.FromQueryRows: the
// count pass checks every entry and multiplicity against n and that each
// record ends where the next begins, and the fill pass decodes each
// record again from its start. Parser scratch is one row per worker and
// m+1 offsets, all bounded by the frame's own size, and the entry side is
// allocated only after the whole frame has been checked, at exactly its
// final size. FromQueryRows validates every row again.
func ParseDesign(data []byte) (*graph.Bipartite, error) {
	fr := &frameReader{data: data}
	if err := fr.prelude(designMagic); err != nil {
		return nil, err
	}
	n, err := fr.uvarint()
	if err != nil {
		return nil, err
	}
	// n is the one dimension no frame byte pays for; m is bounded by the
	// bytes that follow.
	if n > graph.MaxParsedDim {
		return nil, fmt.Errorf("remote: design frame claims n=%d, limit %d", n, graph.MaxParsedDim)
	}
	m, err := fr.uvarint()
	if err != nil {
		return nil, err
	}
	if m > uint64(fr.remaining()) {
		return nil, fmt.Errorf("remote: design frame claims %d queries, %d bytes remain", m, fr.remaining())
	}
	start := make([]int, m+1) // start[j]: the frame offset of query j's record
	for j := range start[:m] {
		start[j] = fr.pos
		d, err := fr.uvarint()
		if err != nil {
			return nil, err
		}
		if d > n || d > uint64(fr.remaining()/2) {
			return nil, fmt.Errorf("remote: design query %d claims %d entries, n=%d, %d bytes remain", j, d, n, fr.remaining())
		}
		if fr.pos = skipVarints(data, fr.pos, 2*d); fr.pos < 0 {
			return nil, fmt.Errorf("remote: design query %d truncated", j)
		}
	}
	start[m] = fr.pos
	if fr.remaining() != 0 {
		return nil, fmt.Errorf("remote: %d trailing bytes after design frame", fr.remaining())
	}
	workers := 1
	if len(data) >= 2*parallelDesignPairs {
		workers = runtime.GOMAXPROCS(0)
	}
	rowCap := min(n, uint64(len(data)/2))
	return graph.FromQueryRows(int(n), int(m), workers, func() graph.RowFunc {
		ents := make([]int32, rowCap)
		muls := make([]int32, rowCap)
		return func(j int) ([]int32, []int32, error) {
			fr := &frameReader{data: data[:start[j+1]], pos: start[j]}
			d, err := fr.uvarint()
			if err != nil {
				return nil, nil, err
			}
			prev := int64(-1)
			for p := uint64(0); p < d; p++ {
				var delta, mul uint64
				if pos := fr.pos; pos+1 < len(fr.data) && fr.data[pos]|fr.data[pos+1] < 0x80 {
					// Dense designs: delta and multiplicity are one byte each.
					delta, mul = uint64(fr.data[pos]), uint64(fr.data[pos+1])
					fr.pos += 2
				} else {
					if delta, err = fr.uvarint(); err != nil {
						return nil, nil, err
					}
					if mul, err = fr.uvarint(); err != nil {
						return nil, nil, err
					}
				}
				if delta == 0 {
					return nil, nil, fmt.Errorf("remote: design query %d repeats entry %d", j, prev)
				}
				if delta > n || prev+int64(delta) >= int64(n) {
					return nil, nil, fmt.Errorf("remote: design query %d references an entry >= n=%d", j, n)
				}
				prev += int64(delta)
				if mul == 0 || mul > graph.MaxMultiplicity {
					return nil, nil, fmt.Errorf("remote: design query %d entry %d has multiplicity %d outside [1,%d]", j, prev, mul, graph.MaxMultiplicity)
				}
				ents[p], muls[p] = int32(prev), int32(mul)
			}
			if fr.remaining() != 0 {
				return nil, nil, fmt.Errorf("remote: design query %d record has %d stray bytes", j, fr.remaining())
			}
			return ents[:d], muls[:d], nil
		}
	})
}
