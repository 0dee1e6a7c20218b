package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMixKnownValues(t *testing.T) {
	// Reference values for splitmix64 with seed 0 (from the public domain
	// reference implementation by Vigna).
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
		0xf88bb8a8724c81ec, 0x1b39896a51a8749b,
	}
	state := uint64(0)
	for i, w := range want {
		var got uint64
		got, state = Mix64(state)
		if got != w {
			t.Fatalf("splitmix64(seed=0) output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix64MatchesGenerator(t *testing.T) {
	// Xoshiro256 expands its seed into its four state words with the
	// Mix64 chain; every pinned design build depends on that expansion.
	for _, seed := range []uint64{0, 42, DeriveSeed(7, 3)} {
		x := NewXoshiro(seed)
		state := seed
		for i := range x.s {
			var out uint64
			out, state = Mix64(state)
			if x.s[i] != out {
				t.Fatalf("seed %d: state word %d = %#x, Mix64 chain gives %#x", seed, i, x.s[i], out)
			}
		}
	}
}

func TestXoshiroJumpDisjointness(t *testing.T) {
	// After a Jump, the stream must not collide with the original prefix.
	a := NewXoshiro(7)
	b := NewXoshiro(7)
	b.Jump()
	seen := make(map[uint64]struct{}, 1000)
	for i := 0; i < 1000; i++ {
		seen[a.Uint64()] = struct{}{}
	}
	collisions := 0
	for i := 0; i < 1000; i++ {
		if _, ok := seen[b.Uint64()]; ok {
			collisions++
		}
	}
	if collisions != 0 {
		t.Fatalf("jumped stream collided with original prefix %d times", collisions)
	}
}

func TestXoshiroSeedDeterminism(t *testing.T) {
	a, b := NewXoshiro(99), NewXoshiro(99)
	for i := 0; i < 200; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed xoshiro streams diverged at step %d", i)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewRandSeeded(3)
	for _, n := range []uint64{1, 2, 3, 7, 16, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-square-ish sanity check on a small modulus.
	r := NewRandSeeded(11)
	const n, draws = 10, 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("value %d drawn %d times, want about %.0f", v, c, want)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRandSeeded(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRandSeeded(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRandSeeded(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBernoulliEdgeCases(t *testing.T) {
	r := NewRandSeeded(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := NewRandSeeded(17)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	mean := float64(hits) / draws
	if math.Abs(mean-p) > 0.01 {
		t.Fatalf("Bernoulli(%.1f) empirical mean %.4f", p, mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRandSeeded(23)
	const draws = 200000
	var sum, sumsq float64
	for i := 0; i < draws; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f, want about 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f, want about 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRandSeeded(29)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleKProperties(t *testing.T) {
	r := NewRandSeeded(31)
	check := func(n, k int) bool {
		s := r.SampleK(n, k)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false // must be strictly increasing => distinct
			}
		}
		return true
	}
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 1}, {10, 10}, {100, 7}, {1000, 50}} {
		if !check(tc.n, tc.k) {
			t.Fatalf("SampleK(%d,%d) violated sortedness/distinctness", tc.n, tc.k)
		}
	}
}

func TestSampleKUniformMargins(t *testing.T) {
	// Each element should be included with probability k/n.
	r := NewRandSeeded(37)
	const n, k, trials = 20, 5, 40000
	counts := make([]int, n)
	for t := 0; t < trials; t++ {
		for _, v := range r.SampleK(n, k) {
			counts[v]++
		}
	}
	want := float64(trials) * k / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("element %d included %d times, want about %.0f", v, c, want)
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleK(3, 4) did not panic")
		}
	}()
	NewRandSeeded(1).SampleK(3, 4)
}

func TestBinomialMoments(t *testing.T) {
	r := NewRandSeeded(41)
	const n, p, trials = 50, 0.4, 20000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(n, p))
	}
	mean := sum / trials
	if math.Abs(mean-n*p) > 0.3 {
		t.Fatalf("Binomial(%d,%.1f) empirical mean %.3f, want %.1f", n, p, mean, n*p)
	}
	if r.Binomial(10, 0) != 0 || r.Binomial(10, 1) != 10 || r.Binomial(0, 0.5) != 0 {
		t.Fatal("Binomial edge cases wrong")
	}
}

// stream returns the generator of work unit index under master seed, the
// way a design build seeds query index.
func stream(master, index uint64) *Xoshiro256 {
	return NewXoshiro(DeriveSeed(master, index))
}

func TestStreamsReproducible(t *testing.T) {
	a1, a2 := stream(123, 4), stream(123, 4)
	for i := 0; i < 100; i++ {
		if a1.Uint64() != a2.Uint64() {
			t.Fatalf("same stream index diverged at step %d", i)
		}
	}
}

func TestStreamsIndependent(t *testing.T) {
	for _, pair := range [][2]*Xoshiro256{
		{stream(123, 0), stream(123, 1)},
		{stream(123, 0), stream(124, 0)},
	} {
		a, b := pair[0], pair[1]
		same := 0
		for i := 0; i < 1000; i++ {
			if a.Uint64() == b.Uint64() {
				same++
			}
		}
		if same > 2 {
			t.Fatalf("distinct streams agreed %d of 1000 times", same)
		}
	}
}

func TestDeriveSeedInjectiveOnRange(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 5000; i++ {
		s := DeriveSeed(777, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("DeriveSeed collision between indices %d and %d", i, j)
		}
		seen[s] = i
	}
}

func TestQuickUint64nNeverExceeds(t *testing.T) {
	r := NewRandSeeded(53)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
