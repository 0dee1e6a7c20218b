package rng

import "math/bits"

// Xoshiro256 implements xoshiro256** 1.0 by Blackman and Vigna. It is the
// simulator's only generator: it needs four words of state, is
// branch-free, and supports a 2^128-step Jump for carving a
// single stream into non-overlapping parallel sub-streams.
type Xoshiro256 struct {
	s [4]uint64
}

// NewXoshiro returns a xoshiro256** generator whose state is expanded from
// seed with SplitMix64, as recommended by the authors.
func NewXoshiro(seed uint64) *Xoshiro256 {
	x := &Xoshiro256{}
	x.Seed(seed)
	return x
}

// Seed expands seed into the four state words via SplitMix64. An all-zero
// state (which would be absorbing) cannot arise from this expansion.
func (x *Xoshiro256) Seed(seed uint64) {
	sm := seed
	for i := range x.s {
		x.s[i], sm = Mix64(sm)
	}
}

// Uint64 returns the next output of the stream.
func (x *Xoshiro256) Uint64() uint64 {
	result := bits.RotateLeft64(x.s[1]*5, 7) * 9
	t := x.s[1] << 17

	x.s[2] ^= x.s[0]
	x.s[3] ^= x.s[1]
	x.s[1] ^= x.s[2]
	x.s[0] ^= x.s[3]
	x.s[2] ^= t
	x.s[3] = bits.RotateLeft64(x.s[3], 45)
	return result
}

// jumpPoly is the characteristic polynomial of the 2^128-step jump.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances the generator by 2^128 steps. Starting from a common seed,
// k calls to Jump produce the start of the k-th of 2^128 non-overlapping
// sub-streams of length 2^128 each.
func (x *Xoshiro256) Jump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= x.s[0]
				s1 ^= x.s[1]
				s2 ^= x.s[2]
				s3 ^= x.s[3]
			}
			x.Uint64()
		}
	}
	x.s[0], x.s[1], x.s[2], x.s[3] = s0, s1, s2, s3
}
