package decoder

import (
	"testing"
	"testing/quick"

	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
)

// TestDecodersNeverPanicOnArbitraryY feeds adversarial result vectors —
// zeros, saturated counts, negatives, random garbage — to every decoder.
// Decoders must return a weight-k estimate (or a clean error), never
// panic: a real pipeline may hand us corrupted measurement files.
func TestDecodersNeverPanicOnArbitraryY(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(120, 30, pooling.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	decs := []Decoder{MN{}, Greedy{}, BP{}, Refined{}, LP{Iterations: 20}}
	mk := func(fill func(j int) int64) []int64 {
		y := make([]int64, g.M())
		for j := range y {
			y[j] = fill(j)
		}
		return y
	}
	r := rng.NewRandSeeded(2)
	cases := map[string][]int64{
		"all-zero":   mk(func(int) int64 { return 0 }),
		"saturated":  mk(func(j int) int64 { return int64(g.QuerySize(j)) }),
		"negative":   mk(func(int) int64 { return -5 }),
		"huge":       mk(func(int) int64 { return 1 << 40 }),
		"random":     mk(func(int) int64 { return int64(r.Intn(100)) - 50 }),
		"one-hot":    mk(func(j int) int64 { return int64(j % 2) }),
		"descending": mk(func(j int) int64 { return int64(g.M() - j) }),
	}
	for name, y := range cases {
		for _, d := range decs {
			est, err := d.Decode(g, y, 7)
			if err != nil {
				t.Fatalf("%s on %s: unexpected error %v", d.Name(), name, err)
			}
			if est.Weight() != 7 {
				t.Fatalf("%s on %s: weight %d, want 7", d.Name(), name, est.Weight())
			}
		}
	}
}

// TestExhaustiveCleanErrorOnGarbage verifies the exhaustive decoder fails
// gracefully (never panics) on infeasible result vectors.
func TestExhaustiveCleanErrorOnGarbage(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(16, 6, pooling.BuildOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range [][]int64{
		{-1, -1, -1, -1, -1, -1},
		{1 << 40, 0, 0, 0, 0, 0},
	} {
		if _, derr := (Exhaustive{}).Decode(g, y, 2); derr == nil {
			t.Fatalf("garbage y %v decoded without error", y)
		}
	}
}

// TestDecodersQuickRandomY is a property sweep: random instances, random
// (possibly infeasible) y, all decoders stay total functions.
func TestDecodersQuickRandomY(t *testing.T) {
	decs := []Decoder{MN{}, Greedy{}, BP{Iterations: 5}, Refined{}}
	f := func(seed uint64) bool {
		r := rng.NewRandSeeded(seed)
		n := 20 + r.Intn(150)
		m := 5 + r.Intn(30)
		k := r.Intn(n/2 + 1)
		g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
		if err != nil {
			return false
		}
		y := make([]int64, m)
		for j := range y {
			y[j] = int64(r.Intn(2*n) - n/2)
		}
		for _, d := range decs {
			est, err := d.Decode(g, y, k)
			if err != nil || est.Weight() != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
