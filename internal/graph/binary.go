package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// A design's binary form is the graph's own entry side, so writing and
// reading one needs no walk in query order. It is the body of a worker
// install and the design of an ad-hoc scheme record in the WAL:
//
//	'p' 'd' 2                 magic and version
//	n m pairs                 uvarints: entries, queries, distinct pairs
//	bit layout:               the n·⌈m/64⌉ cells words, little-endian, in
//	                          memory order (word b of entry i at b·n + i)
//	index layout:             per entry, its distinct-query count d and d
//	                          query deltas (uvarints, each query minus the
//	                          one before, the first minus −1)
//	pairs multiplicity bytes  in entry order, each in [1, 255]
//
// A graph is stored in the layout bitStored picks for its (n, m, pairs),
// so the layout is not written down: a bit-layout form is exactly
// 8·n·⌈m/64⌉ + pairs bytes after its header. docs/shard-protocol.md
// specifies the form.
var binaryMagic = [2]byte{'p', 'd'}

// binaryVersion is the form's version byte. Version 1 was query-major.
const binaryVersion = 2

// AppendBinary appends g's binary form to buf, growing it once to the
// form's exact size. It cannot fail, so unlike encoding.BinaryAppender
// it returns no error.
func (g *Bipartite) AppendBinary(buf []byte) []byte {
	n, m, pairs := g.n, g.m, g.DistinctPairs()
	size := 3 + uvarintLen(uint64(n)) + uvarintLen(uint64(m)) + uvarintLen(uint64(pairs)) + int(pairs)
	if g.cells != nil {
		size += 8 * len(g.cells)
	} else {
		g.indexRows(func(v uint64) { size += uvarintLen(v) })
	}
	if cap(buf)-len(buf) < size {
		buf = append(make([]byte, 0, len(buf)+size), buf...)
	}
	buf = append(buf, binaryMagic[0], binaryMagic[1], binaryVersion)
	buf = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(buf, uint64(n)), uint64(m)), uint64(pairs))
	if g.cells != nil {
		for _, w := range g.cells {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
	} else {
		g.indexRows(func(v uint64) { buf = binary.AppendUvarint(buf, v) })
	}
	return append(buf, g.emul...)
}

// indexRows calls put with an index-stored graph's rows as the index
// layout writes them: per entry its degree, then its query deltas.
func (g *Bipartite) indexRows(put func(uint64)) {
	for i := 0; i < g.n; i++ {
		qs := g.eqry[g.eptr[i]:g.eptr[i+1]]
		put(uint64(len(qs)))
		prev := int32(-1)
		for _, q := range qs {
			put(uint64(q - prev))
			prev = q
		}
	}
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// ParseBinary reads a design's binary form. Every claim is checked
// before anything is allocated from it: n and m against MaxParsedDim,
// the pair count against n·m and the body's length, and then the whole
// body (every bit inside [0, m) and the bits adding up to the pair
// count, or every degree and query delta in range and the degrees adding
// up to it, and no multiplicity 0). The arrays are then allocated at
// their final size, copied or decoded in one pass, and the per-query
// counts summed from them.
func ParseBinary(data []byte) (*Bipartite, error) {
	if len(data) < 3 || data[0] != binaryMagic[0] || data[1] != binaryMagic[1] {
		return nil, fmt.Errorf("graph: not a design's binary form (bad magic)")
	}
	if data[2] != binaryVersion {
		return nil, fmt.Errorf("graph: design form version %d, this build reads version %d", data[2], binaryVersion)
	}
	pos := 3
	var head [3]uint64 // n, m, pairs
	for k := range head {
		v, w := binary.Uvarint(data[pos:])
		if w <= 0 {
			return nil, fmt.Errorf("graph: design header truncated at byte %d", pos)
		}
		head[k], pos = v, pos+w
	}
	if head[0] > MaxParsedDim || head[1] > MaxParsedDim {
		return nil, fmt.Errorf("graph: design claims n=%d, m=%d; limit %d", head[0], head[1], MaxParsedDim)
	}
	n, m := int(head[0]), int(head[1])
	if head[2] > head[0]*head[1] || head[2] > uint64(len(data)-pos) {
		return nil, fmt.Errorf("graph: design claims %d pairs; n·m = %d, %d bytes follow", head[2], head[0]*head[1], len(data)-pos)
	}
	pairs := int64(head[2])
	body, mults := data[pos:len(data)-int(pairs)], data[len(data)-int(pairs):]
	dense := bitStored(n, m, pairs)
	var err error
	if dense {
		err = checkCells(body, n, m, pairs)
	} else {
		err = readIndex(body, n, m, pairs, nil)
	}
	if err != nil {
		return nil, err
	}
	if p := bytes.IndexByte(mults, 0); p >= 0 {
		return nil, fmt.Errorf("graph: design pair %d has multiplicity 0", p)
	}

	g := &Bipartite{n: n, m: m, eptr: make([]int64, n+1), emul: slices.Clone(mults),
		qdist: make([]int32, m), qsize: make([]int64, m)}
	if !dense {
		g.eqry = make([]int32, pairs)
		_ = readIndex(body, n, m, pairs, g) // the check pass accepted these bytes
		return g, nil
	}
	g.cells = make([]uint64, len(body)/8)
	for k := range g.cells {
		g.cells[k] = binary.LittleEndian.Uint64(body[8*k:])
	}
	var p int64
	for i := 0; i < n; i++ {
		for b, at := 0, i; at < len(g.cells); b, at = b+1, at+n {
			for w := g.cells[at]; w != 0; w &= w - 1 {
				j := b<<6 + bits.TrailingZeros64(w)
				g.qdist[j]++
				g.qsize[j] += int64(g.emul[p])
				p++
			}
		}
		g.eptr[i+1] = p
	}
	return g, nil
}

// checkCells checks a bit-layout body: exactly n·⌈m/64⌉ words, no bit
// at or past query m, and pairs bits set in all.
func checkCells(body []byte, n, m int, pairs int64) error {
	words := n * blocks(m)
	if len(body) != 8*words {
		return fmt.Errorf("graph: bit-layout design of %d entries, %d queries and %d pairs is %d bytes, want %d",
			n, m, pairs, len(body)+int(pairs), 8*words+int(pairs))
	}
	past := ^uint64(0) << ((m-1)&63 + 1) // the last block's bits at or past m; none if 64 | m
	last := words - n                    // the last block's first word
	var set int64
	for k := 0; k < words; k++ {
		w := binary.LittleEndian.Uint64(body[8*k:])
		if k >= last && w&past != 0 {
			return fmt.Errorf("graph: design entry %d has query %d, m = %d", k-last, (blocks(m)-1)<<6+bits.TrailingZeros64(w&past), m)
		}
		set += int64(bits.OnesCount64(w))
	}
	if set != pairs {
		return fmt.Errorf("graph: design sets %d bits for %d pairs", set, pairs)
	}
	return nil
}

// readIndex reads an index-layout body: per entry its degree and query
// deltas, which must fill the body exactly, name strictly increasing
// queries below m and add up to pairs. With g nil it only checks; given
// a graph with its multiplicities and the other arrays allocated, it
// fills eptr, eqry and the per-query counts.
func readIndex(body []byte, n, m int, pairs int64, g *Bipartite) error {
	pos, p := 0, int64(0)
	next := func() (uint64, error) {
		v, w := binary.Uvarint(body[pos:])
		if w <= 0 {
			return 0, fmt.Errorf("graph: design rows truncated at byte %d of %d", pos, len(body))
		}
		pos += w
		return v, nil
	}
	for i := 0; i < n; i++ {
		d, err := next()
		if err != nil {
			return err
		}
		if d > uint64(m) || d > uint64(pairs-p) {
			return fmt.Errorf("graph: design entry %d claims %d queries; m = %d, %d pairs left", i, d, m, pairs-p)
		}
		q := int64(-1)
		for end := p + int64(d); p < end; p++ {
			delta, err := next()
			if err != nil {
				return err
			}
			if delta == 0 || delta > uint64(m) || q+int64(delta) >= int64(m) {
				return fmt.Errorf("graph: design entry %d has query delta %d after %d; m = %d", i, delta, q, m)
			}
			q += int64(delta)
			if g != nil {
				g.eqry[p] = int32(q)
				g.qdist[q]++
				g.qsize[q] += int64(g.emul[p])
			}
		}
		if g != nil {
			g.eptr[i+1] = p
		}
	}
	if p != pairs {
		return fmt.Errorf("graph: design degrees add up to %d pairs, want %d", p, pairs)
	}
	if pos != len(body) {
		return fmt.Errorf("graph: design rows end at byte %d of %d", pos, len(body))
	}
	return nil
}
