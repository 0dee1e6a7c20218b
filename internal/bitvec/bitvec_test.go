package bitvec

import (
	"math"
	"testing"
	"testing/quick"

	"pooleddata/internal/rng"
)

func TestNewZeroAndBounds(t *testing.T) {
	v := New(130)
	if v.Len() != 130 {
		t.Fatalf("Len = %d, want 130", v.Len())
	}
	if v.Weight() != 0 {
		t.Fatalf("fresh vector weight = %d, want 0", v.Weight())
	}
	for i := 0; i < 130; i++ {
		if v.Get(i) {
			t.Fatalf("fresh vector has one at %d", i)
		}
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetClearFlip(t *testing.T) {
	v := New(100)
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(99)
	if v.Weight() != 4 {
		t.Fatalf("weight = %d, want 4", v.Weight())
	}
	v.Clear(63)
	if v.Get(63) || v.Weight() != 3 {
		t.Fatal("Clear(63) failed")
	}
	v.Flip(63)
	v.Flip(0)
	if !v.Get(63) || v.Get(0) || v.Weight() != 3 {
		t.Fatal("Flip failed")
	}
	// Set is idempotent.
	v.Set(64)
	if v.Weight() != 3 {
		t.Fatal("double Set changed weight")
	}
}

func TestGetPanicsOutOfRange(t *testing.T) {
	v := New(10)
	for _, i := range []int{-1, 10, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Get(%d) did not panic", i)
				}
			}()
			v.Get(i)
		}()
	}
}

func TestFromIndicesAndSupportRoundTrip(t *testing.T) {
	idx := []int{5, 1, 99, 64, 63, 5} // out of order, with duplicate
	v := FromIndices(100, idx)
	want := []int{1, 5, 63, 64, 99}
	got := v.Support()
	if len(got) != len(want) {
		t.Fatalf("Support = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Support = %v, want %v", got, want)
		}
	}
}

func TestFromBools(t *testing.T) {
	v := FromBools([]bool{true, false, true, true})
	if v.Len() != 4 || v.Weight() != 3 || !v.Get(0) || v.Get(1) {
		t.Fatalf("FromBools wrong: %v", v)
	}
}

func TestOverlapHammingIdentity(t *testing.T) {
	// |a| + |b| - 2*overlap == hamming, for random vectors.
	r := rng.NewRandSeeded(1)
	f := func(seed uint64) bool {
		rr := rng.NewRandSeeded(seed)
		n := 1 + rr.Intn(500)
		a := Random(n, rr.Intn(n+1), rr)
		b := Random(n, rr.Intn(n+1), rr)
		return a.Weight()+b.Weight()-2*a.Overlap(b) == a.Hamming(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: nil}); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestOverlapSelfIsWeight(t *testing.T) {
	r := rng.NewRandSeeded(2)
	v := Random(777, 55, r)
	if v.Overlap(v) != v.Weight() {
		t.Fatal("Overlap(v,v) != Weight(v)")
	}
	if v.Hamming(v) != 0 {
		t.Fatal("Hamming(v,v) != 0")
	}
	if !v.Equal(v.Clone()) {
		t.Fatal("clone not equal")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Fatal("vectors of different lengths reported equal")
	}
}

func TestOverlapPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Overlap with mismatched lengths did not panic")
		}
	}()
	New(10).Overlap(New(11))
}

func TestCloneIndependence(t *testing.T) {
	v := FromIndices(70, []int{3, 68})
	w := v.Clone()
	w.Set(10)
	if v.Get(10) {
		t.Fatal("mutating clone changed original")
	}
}

func TestRandomWeightExact(t *testing.T) {
	r := rng.NewRandSeeded(3)
	for _, tc := range []struct{ n, k int }{{1, 0}, {1, 1}, {100, 0}, {100, 100}, {1000, 31}, {64, 64}} {
		v := Random(tc.n, tc.k, r)
		if v.Weight() != tc.k {
			t.Fatalf("Random(%d,%d) weight = %d", tc.n, tc.k, v.Weight())
		}
		if v.Len() != tc.n {
			t.Fatalf("Random(%d,%d) length = %d", tc.n, tc.k, v.Len())
		}
	}
}

func TestRandomPanicsOnBadWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Random(5, 6) did not panic")
		}
	}()
	Random(5, 6, rng.NewRandSeeded(1))
}

func TestRandomUniformMargins(t *testing.T) {
	// Each coordinate should be one with probability k/n across trials.
	r := rng.NewRandSeeded(4)
	const n, k, trials = 30, 6, 30000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		Random(n, k, r).ForEachSet(func(j int) { counts[j]++ })
	}
	want := float64(trials) * k / n
	for j, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("coordinate %d set %d times, want about %.0f", j, c, want)
		}
	}
}

func TestForEachSetOrder(t *testing.T) {
	v := FromIndices(200, []int{199, 0, 100, 64, 63})
	prev := -1
	v.ForEachSet(func(i int) {
		if i <= prev {
			t.Fatalf("ForEachSet out of order: %d after %d", i, prev)
		}
		prev = i
	})
	if prev != 199 {
		t.Fatalf("last index %d, want 199", prev)
	}
}

func TestCountInWithMultiplicity(t *testing.T) {
	v := FromIndices(10, []int{2, 5})
	// index 2 appears twice: counts twice, like a multi-edge in a query.
	if got := v.CountIn([]int{2, 2, 5, 7}); got != 3 {
		t.Fatalf("CountIn = %d, want 3", got)
	}
	if got := v.CountIn(nil); got != 0 {
		t.Fatalf("CountIn(nil) = %d, want 0", got)
	}
}

func TestStringForms(t *testing.T) {
	v := FromIndices(5, []int{0, 4})
	if s := v.String(); s != "10001" {
		t.Fatalf("String = %q, want 10001", s)
	}
	long := New(1000)
	if s := long.String(); s == "" {
		t.Fatal("long String empty")
	}
}

func TestOverlapFraction(t *testing.T) {
	sigma := FromIndices(10, []int{1, 2, 3, 4})
	est := FromIndices(10, []int{2, 3, 9})
	if got := OverlapFraction(sigma, est); got != 0.5 {
		t.Fatalf("OverlapFraction = %v, want 0.5", got)
	}
	if OverlapFraction(New(10), est) != 1 {
		t.Fatal("OverlapFraction with empty sigma should be 1")
	}
	if OverlapFraction(sigma, sigma) != 1 {
		t.Fatal("OverlapFraction(sigma, sigma) should be 1")
	}
}

func TestQuickSupportRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewRandSeeded(seed)
		n := 1 + r.Intn(300)
		k := r.Intn(n + 1)
		v := Random(n, k, r)
		return FromIndices(n, v.Support()).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAndPopcountMatchesOverlap(t *testing.T) {
	r := rng.NewRandSeeded(5)
	for trial := 0; trial < 20; trial++ {
		n := 1 + int(r.Uint64n(300))
		a := Random(n, int(r.Uint64n(uint64(n+1))), r)
		b := Random(n, int(r.Uint64n(uint64(n+1))), r)
		if got, want := AndPopcount(a.Words(), b.Words()), a.Overlap(b); got != want {
			t.Fatalf("n=%d: AndPopcount %d, Overlap %d", n, got, want)
		}
	}
}
