package rng

// Mix64 advances a SplitMix64 (Steele, Lea and Flood) state by one step
// and returns both the output and the new state. Xoshiro256 expands its
// seed with it.
func Mix64(state uint64) (out, next uint64) {
	next = state + 0x9e3779b97f4a7c15
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), next
}

// DeriveSeed deterministically maps (master, index) to an independent
// 64-bit seed. Distinct indices give decorrelated streams; this is how all
// parallel code in the repository assigns per-worker generators.
func DeriveSeed(master uint64, index uint64) uint64 {
	// Two rounds of the SplitMix64 finalizer over a combination of master
	// and index. The golden-gamma multiplication separates consecutive
	// indices by a full avalanche.
	x := master ^ (index+1)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
