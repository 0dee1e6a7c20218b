package labio

import (
	"bytes"
	"hash/fnv"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

func TestDesignRoundTrip(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(200, 40, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDesign(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() || g2.HalfEdges() != g.HalfEdges() {
		t.Fatal("shape changed through round trip")
	}
	for i := 0; i < g.N(); i++ {
		q1, m1 := g.EntryQueries(i)
		q2, m2 := g2.EntryQueries(i)
		if !slices.Equal(q1, q2) || !slices.Equal(m1, m2) {
			t.Fatalf("entry %d changed through round trip", i)
		}
	}
}

// queryRow returns query j's row, read through the graph's visitor.
func queryRow(g *graph.Bipartite, j int) (ents, muls []int32) {
	g.ForEachQuery(j, j+1, func(_ int, e, mu []int32) error {
		ents, muls = slices.Clone(e), slices.Clone(mu)
		return nil
	})
	return ents, muls
}

// TestWriteDesignGolden pins the CSV of the service's home-scale design
// (random-regular, n = 10⁴, m = 600, seed 1): design downloads and
// re-uploads depend on these bytes, not just on round-tripping.
func TestWriteDesignGolden(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if err := WriteDesign(h, g); err != nil {
		t.Fatal(err)
	}
	if got, want := h.Sum64(), uint64(0x84e65df9efa8f23d); got != want {
		t.Fatalf("home-scale design CSV digest %#x, want %#x", got, want)
	}
	var buf bytes.Buffer
	fig1, err := pooling.Fixed{Queries: [][]int{{0, 1, 3}, {1, 4, 6}, {0, 1, 4, 6, 6}, {2, 4}, {0, 5, 5, 6, 6}}}.Build(7, 5, pooling.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDesign(&buf, fig1); err != nil {
		t.Fatal(err)
	}
	want := "pooled-design,v1,7,5\nquery,entry,multiplicity\n0,0,1\n0,1,1\n0,3,1\n1,1,1\n1,4,1\n1,6,1\n" +
		"2,0,1\n2,1,1\n2,4,1\n2,6,2\n3,2,1\n3,4,1\n4,0,1\n4,5,2\n4,6,2\n"
	if buf.String() != want {
		t.Fatalf("Fig. 1 design CSV = %q, want %q", buf.String(), want)
	}
}

func TestDesignRoundTripPreservesDecoding(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewRandSeeded(seed)
		n := 50 + r.Intn(150)
		m := 10 + r.Intn(40)
		g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteDesign(&buf, g); err != nil {
			return false
		}
		g2, err := ReadDesign(&buf)
		if err != nil {
			return false
		}
		sigma := bitvec.Random(n, 5, r)
		y1 := query.Execute(g, sigma, query.Options{}).Y
		y2 := query.Execute(g2, sigma, query.Options{}).Y
		for j := range y1 {
			if y1[j] != y2[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCountsRoundTrip(t *testing.T) {
	y := []int64{5, 0, 123456789012, 3, 7}
	var buf bytes.Buffer
	if err := WriteCounts(&buf, y); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCounts(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(y) {
		t.Fatalf("length %d", len(got))
	}
	for j := range y {
		if got[j] != y[j] {
			t.Fatalf("count %d changed", j)
		}
	}
}

func TestCountsOutOfOrderRows(t *testing.T) {
	in := "pooled-results,v1,3\nquery,count\n2,30\n0,10\n1,20\n"
	got, err := ReadCounts(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestReadDesignErrors(t *testing.T) {
	cases := map[string]string{
		"wrong magic":    "nope,v1,3,1\nquery,entry,multiplicity\n",
		"bad n":          "pooled-design,v1,x,1\nquery,entry,multiplicity\n",
		"negative n":     "pooled-design,v1,-3,1\nquery,entry,multiplicity\n",
		"query range":    "pooled-design,v1,3,1\nquery,entry,multiplicity\n5,0,1\n",
		"entry range":    "pooled-design,v1,3,1\nquery,entry,multiplicity\n0,9,1\n",
		"bad mult":       "pooled-design,v1,3,1\nquery,entry,multiplicity\n0,0,0\n",
		"non-numeric":    "pooled-design,v1,3,1\nquery,entry,multiplicity\n0,a,1\n",
		"dup entry":      "pooled-design,v1,3,1\nquery,entry,multiplicity\n0,1,1\n0,1,1\n",
		"missing header": "",
	}
	for name, in := range cases {
		if _, err := ReadDesign(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReadCountsErrors(t *testing.T) {
	cases := map[string]string{
		"wrong magic": "nope,v1,2\nquery,count\n0,1\n1,2\n",
		"bad m":       "pooled-results,v1,x\nquery,count\n",
		"range":       "pooled-results,v1,2\nquery,count\n5,1\n",
		"duplicate":   "pooled-results,v1,2\nquery,count\n0,1\n0,2\n",
		"missing":     "pooled-results,v1,2\nquery,count\n0,1\n",
		"non-numeric": "pooled-results,v1,1\nquery,count\n0,x\n",
		"empty":       "",
	}
	for name, in := range cases {
		if _, err := ReadCounts(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReadDesignAcceptsUnsortedRows(t *testing.T) {
	in := "pooled-design,v1,4,2\nquery,entry,multiplicity\n1,3,1\n0,2,2\n0,1,1\n1,0,1\n"
	g, err := ReadDesign(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	e0, m0 := queryRow(g, 0)
	if len(e0) != 2 || e0[0] != 1 || e0[1] != 2 || m0[1] != 2 {
		t.Fatalf("query 0 = %v/%v", e0, m0)
	}
	if g.QuerySize(0) != 3 {
		t.Fatalf("size %d", g.QuerySize(0))
	}
}

func TestEmptyDesign(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(5, 0, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDesign(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadDesign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 5 || g2.M() != 0 {
		t.Fatal("empty design round trip failed")
	}
}
