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
	err := g.ForEachQuery(0, g.M(), func(j int, ents, muls []int32) error {
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

// ReadDesign parses a design file back into a bipartite multigraph.
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
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("labio: negative dimensions %d, %d", n, m)
	}
	if _, err := cr.Read(); err != nil { // column header
		return nil, fmt.Errorf("labio: read column header: %w", err)
	}
	ents := make([][]int32, m)
	muls := make([][]int32, m)
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
		if mu < 1 {
			return nil, fmt.Errorf("labio: multiplicity %d < 1", mu)
		}
		ents[j] = append(ents[j], int32(e))
		muls[j] = append(muls[j], int32(mu))
	}
	// Rows must be strictly increasing per query, so sort pairs (files
	// written by WriteDesign already are).
	for j := 0; j < m; j++ {
		sortPairs(ents[j], muls[j])
		for i := 1; i < len(ents[j]); i++ {
			if ents[j][i] == ents[j][i-1] {
				return nil, fmt.Errorf("labio: duplicate entry %d in query %d (use multiplicity)", ents[j][i], j)
			}
		}
	}
	return graph.FromQueryRows(n, m, runtime.GOMAXPROCS(0), func() graph.RowFunc {
		return func(j int) ([]int32, []int32, error) { return ents[j], muls[j], nil }
	})
}

// sortPairs sorts the parallel slices by entry (insertion sort: rows per
// query arrive almost sorted from well-formed files).
func sortPairs(ents, muls []int32) {
	for i := 1; i < len(ents); i++ {
		e, mu := ents[i], muls[i]
		j := i - 1
		for j >= 0 && ents[j] > e {
			ents[j+1], muls[j+1] = ents[j], muls[j]
			j--
		}
		ents[j+1], muls[j+1] = e, mu
	}
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
