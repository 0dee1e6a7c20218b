package graph

import (
	"runtime"
	"slices"
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

// TestEntrySideParallelFillMatchesSequential: the entry side and the
// per-query counts do not depend on how the queries were split among
// workers, more workers than CPUs or queries included.
func TestEntrySideParallelFillMatchesSequential(t *testing.T) {
	n, m, per := 3000, 60, 300
	qptr, qent, qmul := buildRandomCSR(n, m, per, 11)
	rows := func() RowFunc {
		return func(j int) ([]int32, []int32, error) {
			return qent[qptr[j]:qptr[j+1]], qmul[qptr[j]:qptr[j+1]], nil
		}
	}
	gSeq, err := FromQueryRows(n, m, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 6, 7, 60, 99} {
		gPar, err := FromQueryRows(n, m, workers, rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			q1, m1 := gSeq.EntryQueries(i)
			q2, m2 := gPar.EntryQueries(i)
			if !slices.Equal(q1, q2) || !slices.Equal(m1, m2) {
				t.Fatalf("workers=%d: entry %d row differs from one worker's", workers, i)
			}
		}
		for j := 0; j < m; j++ {
			if gPar.QueryDistinct(j) != gSeq.QueryDistinct(j) || gPar.QuerySize(j) != gSeq.QuerySize(j) {
				t.Fatalf("workers=%d: query %d counts differ", workers, j)
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

// BenchmarkNew prices graph assembly from query-side CSR arrays (the
// count and fill passes of FromQueryRows) at the service's home scale:
// n = 10⁴, m = 600, and the ~3935 distinct entries per query that
// Γ = n/2 draws with replacement leave.
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
