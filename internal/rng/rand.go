package rng

import (
	"math"
	"math/bits"
)

// Rand wraps a xoshiro256** stream with the distribution helpers the
// simulator needs: bounded integers (bias-free), floats, Bernoulli draws,
// Fisher-Yates shuffles and weight-k subset sampling. It mirrors the
// parts of math/rand the paper's C++ code uses from <random>, but with
// explicit, documented algorithms so results are stable across Go
// releases.
//
// A Rand is not safe for concurrent use.
type Rand struct {
	src *Xoshiro256
}

// NewRand wraps src.
func NewRand(src *Xoshiro256) *Rand { return &Rand{src: src} }

// NewRandSeeded is shorthand for NewRand(NewXoshiro(seed)).
func NewRandSeeded(seed uint64) *Rand { return &Rand{src: NewXoshiro(seed)} }

// Seed reseeds the underlying generator.
func (r *Rand) Seed(seed uint64) { r.src.Seed(seed) }

// Uint64 returns a uniform 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Uint64n returns a uniform value in [0, n) without modulo bias using
// Lemire's multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.src.Uint64() & (n - 1)
	}
	// Lemire (2019): widening multiply, reject the low-bias region.
	hi, lo := bits.Mul64(r.src.Uint64(), n)
	if lo < n {
		thresh := (-n) % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.src.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.src.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate via the polar
// (Marsaglia) method. Used by the noisy-oracle extension.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// SampleK returns k distinct values from [0, n) in increasing order using
// Floyd's algorithm: O(k) expected draws and O(k) memory, independent of n.
// It panics if k > n or k < 0.
func (r *Rand) SampleK(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleK with k out of range")
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Insertion sort: k is small (k = n^θ) and the values are near-sorted
	// only by accident; for large k callers pay O(k log k) elsewhere anyway.
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i - 1
		for j >= 0 && out[j] > v {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = v
	}
	return out
}

// Binomial draws from Bin(n, p) by inversion for small n·p and by
// summing Bernoulli draws otherwise. Exact distribution, not an
// approximation; used by design ablations and tests.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial with n < 0")
	}
	if p <= 0 || n == 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Direct summation is O(n) but every call site has modest n; the
	// simulator's hot loops never draw binomials element-wise.
	count := 0
	for i := 0; i < n; i++ {
		if r.Float64() < p {
			count++
		}
	}
	return count
}
