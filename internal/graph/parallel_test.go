package graph

import (
	"runtime"
	"testing"

	"pooleddata/internal/rng"
)

// buildRandomCSR constructs a random valid query-side CSR directly (the
// graph package cannot depend on pooling, which would be a cycle).
func buildRandomCSR(n, m, perQuery int, seed uint64) (qptr []int64, qent, qmul []int32) {
	r := rng.NewRandSeeded(seed)
	qptr = make([]int64, m+1)
	for j := 0; j < m; j++ {
		picks := r.SampleK(n, perQuery)
		qptr[j+1] = qptr[j] + int64(len(picks))
		for _, e := range picks {
			qent = append(qent, int32(e))
			qmul = append(qmul, int32(1+r.Intn(3)))
		}
	}
	return
}

func TestEntrySideParallelFillMatchesSequential(t *testing.T) {
	// Large enough that buildEntrySide takes its multi-worker path once
	// GOMAXPROCS allows; results must be identical either way.
	n, m, per := 3000, 60, 300
	qptr, qent, qmul := buildRandomCSR(n, m, per, 11)

	old := runtime.GOMAXPROCS(1)
	gSeq, err := New(n, qptr, qent, qmul)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(6)
	gPar, err := New(n, qptr, qent, qmul)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < n; i++ {
		q1, m1 := gSeq.EntryQueries(i)
		q2, m2 := gPar.EntryQueries(i)
		if len(q1) != len(q2) {
			t.Fatalf("entry %d: lengths differ", i)
		}
		for p := range q1 {
			if q1[p] != q2[p] || m1[p] != m2[p] {
				t.Fatalf("entry %d: parallel fill differs at position %d", i, p)
			}
		}
	}
}

func TestEntrySideSortedByQuery(t *testing.T) {
	n, m, per := 2000, 40, 400
	qptr, qent, qmul := buildRandomCSR(n, m, per, 13)
	old := runtime.GOMAXPROCS(8)
	g, err := New(n, qptr, qent, qmul)
	runtime.GOMAXPROCS(old)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		qs, _ := g.EntryQueries(i)
		for p := 1; p < len(qs); p++ {
			if qs[p-1] >= qs[p] {
				t.Fatalf("entry %d: query list not strictly increasing", i)
			}
		}
	}
}

// BenchmarkNew prices graph assembly (validation plus the entry-side
// transpose) at the service's home scale: n = 10⁴, m = 600, and the
// ~3935 distinct entries per query that Γ = n/2 draws with replacement
// leave.
func BenchmarkNew(b *testing.B) {
	qptr, qent, qmul := buildRandomCSR(10_000, 600, 3935, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(10_000, qptr, qent, qmul); err != nil {
			b.Fatal(err)
		}
	}
}
