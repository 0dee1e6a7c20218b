// Package labio serializes pooling designs and measurement results as
// CSV — the interchange format between the in-process simulator and a
// real measurement campaign (a pipetting robot consumes the design file;
// the plate reader's counts come back as a results file).
//
// Design files:
//
//	pooled-design,v1,<n>,<m>
//	query,entry,multiplicity
//	0,17,1
//	0,33,2
//	...
//
// Result files:
//
//	pooled-results,v1,<m>
//	query,count
//	0,3
//	...
//
// Both formats round-trip exactly: ReadDesign(WriteDesign(g)) reproduces
// the graph, including multi-edges.
package labio

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"strconv"

	"pooleddata/internal/graph"
)

const (
	designMagic  = "pooled-design"
	resultsMagic = "pooled-results"
	version      = "v1"
)

// WriteDesign emits the full pooling design of g in CSV form.
func WriteDesign(w io.Writer, g *graph.Bipartite) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{designMagic, version, strconv.Itoa(g.N()), strconv.Itoa(g.M())}); err != nil {
		return err
	}
	if err := cw.Write([]string{"query", "entry", "multiplicity"}); err != nil {
		return err
	}
	row := make([]string, 3)
	err := g.ForEachQuery(func(j int, ents, muls []int32) error {
		for p, e := range ents {
			row[0] = strconv.Itoa(j)
			row[1] = strconv.Itoa(int(e))
			row[2] = strconv.Itoa(int(muls[p]))
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ReadDesign parses a design file back into a bipartite multigraph. The
// header's n and m may not exceed graph.MaxParsedDim, and every
// multiplicity must lie in [1, graph.MaxMultiplicity]; both are checked
// before anything is allocated or converted from them.
func ReadDesign(r io.Reader) (*graph.Bipartite, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("labio: read header: %w", err)
	}
	if len(head) != 4 || head[0] != designMagic || head[1] != version {
		return nil, fmt.Errorf("labio: not a %s/%s file", designMagic, version)
	}
	n, err := strconv.Atoi(head[2])
	if err != nil {
		return nil, fmt.Errorf("labio: bad n: %w", err)
	}
	m, err := strconv.Atoi(head[3])
	if err != nil {
		return nil, fmt.Errorf("labio: bad m: %w", err)
	}
	if n < 0 || m < 0 || n > graph.MaxParsedDim || m > graph.MaxParsedDim {
		return nil, fmt.Errorf("labio: dimensions n=%d, m=%d outside [0,%d]", n, m, graph.MaxParsedDim)
	}
	if _, err := cr.Read(); err != nil { // column header
		return nil, fmt.Errorf("labio: read column header: %w", err)
	}
	// Rows go into one flat array that grows with the body, never with
	// the header's m, each packed as query<<32 | entry<<8 | multiplicity
	// (n, m <= 2^24 and multiplicities fit a byte), so sorting the keys
	// sorts the rows by (query, entry).
	cr.ReuseRecord = true
	var rows []uint64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("labio: read row: %w", err)
		}
		if len(rec) != 3 {
			return nil, fmt.Errorf("labio: design row has %d fields", len(rec))
		}
		j, err1 := strconv.Atoi(rec[0])
		e, err2 := strconv.Atoi(rec[1])
		mu, err3 := strconv.Atoi(rec[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("labio: non-numeric design row %v", rec)
		}
		if j < 0 || j >= m {
			return nil, fmt.Errorf("labio: query %d outside [0,%d)", j, m)
		}
		if e < 0 || e >= n {
			return nil, fmt.Errorf("labio: entry %d outside [0,%d)", e, n)
		}
		if mu < 1 || mu > graph.MaxMultiplicity {
			return nil, fmt.Errorf("labio: query %d entry %d has multiplicity %d outside [1,%d]", j, e, mu, graph.MaxMultiplicity)
		}
		rows = append(rows, uint64(j)<<32|uint64(e)<<8|uint64(mu))
	}
	// Rows must be strictly increasing per query: one O(N log N) sort
	// (files written by WriteDesign are already in order), then a repeat
	// of (query, entry) is a neighbour.
	slices.Sort(rows)
	ents := make([]int32, len(rows))
	muls := make([]int32, len(rows))
	for p, r := range rows {
		if p > 0 && r>>8 == rows[p-1]>>8 {
			return nil, fmt.Errorf("labio: duplicate entry %d in query %d (use multiplicity)", r>>8&0xFFFFFF, r>>32)
		}
		ents[p], muls[p] = int32(r>>8&0xFFFFFF), int32(r&0xFF)
	}
	return graph.FromQueryRows(n, m, runtime.GOMAXPROCS(0), func() graph.RowFunc {
		// A worker asks for its queries in increasing order, so query j's
		// rows start where query j-1's ended; any other query is found by
		// binary search.
		next, last := 0, -2
		return func(j int) ([]int32, []int32, error) {
			lo := next
			if j != last+1 {
				lo = sort.Search(len(rows), func(p int) bool { return rows[p]>>32 >= uint64(j) })
			}
			hi := lo
			for hi < len(rows) && rows[hi]>>32 == uint64(j) {
				hi++
			}
			next, last = hi, j
			return ents[lo:hi], muls[lo:hi], nil
		}
	})
}

// WriteCounts emits measurement results, one row per query.
func WriteCounts(w io.Writer, y []int64) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{resultsMagic, version, strconv.Itoa(len(y))}); err != nil {
		return err
	}
	if err := cw.Write([]string{"query", "count"}); err != nil {
		return err
	}
	row := make([]string, 2)
	for j, v := range y {
		row[0] = strconv.Itoa(j)
		row[1] = strconv.FormatInt(v, 10)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCounts parses a results file. Rows may arrive in any order; every
// query must be covered exactly once.
func ReadCounts(r io.Reader) ([]int64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("labio: read header: %w", err)
	}
	if len(head) != 3 || head[0] != resultsMagic || head[1] != version {
		return nil, fmt.Errorf("labio: not a %s/%s file", resultsMagic, version)
	}
	m, err := strconv.Atoi(head[2])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("labio: bad result count %q", head[2])
	}
	if _, err := cr.Read(); err != nil { // column header
		return nil, fmt.Errorf("labio: read column header: %w", err)
	}
	y := make([]int64, m)
	seen := make([]bool, m)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("labio: read row: %w", err)
		}
		if len(rec) != 2 {
			return nil, fmt.Errorf("labio: results row has %d fields", len(rec))
		}
		j, err1 := strconv.Atoi(rec[0])
		v, err2 := strconv.ParseInt(rec[1], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("labio: non-numeric results row %v", rec)
		}
		if j < 0 || j >= m {
			return nil, fmt.Errorf("labio: query %d outside [0,%d)", j, m)
		}
		if seen[j] {
			return nil, fmt.Errorf("labio: duplicate result for query %d", j)
		}
		seen[j] = true
		y[j] = v
	}
	for j, s := range seen {
		if !s {
			return nil, fmt.Errorf("labio: missing result for query %d", j)
		}
	}
	return y, nil
}
