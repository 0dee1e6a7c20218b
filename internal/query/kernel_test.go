package query

import (
	"fmt"
	"reflect"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
	"pooleddata/internal/sparse"
)

// gaussPerturber is a minimal stream-consuming Perturber standing in for
// noise.Model (the noise package depends on query, not vice versa).
type gaussPerturber struct{ sigma float64 }

func (p gaussPerturber) Perturb(v int64, r *rng.Rand) int64 {
	v += int64(p.sigma*r.NormFloat64() + 0.5)
	if v < 0 {
		v = 0
	}
	return v
}

func (gaussPerturber) Deterministic() bool { return false }

// TestBatchKernelsBitIdentical is the property test of the batch path:
// for random (n, m, B) instances — including batch sizes straddling the
// 64-bit word boundary and degenerate all-zero/all-one signals — every
// row of ExecuteBatch, at any worker count, equals per-signal Execute and
// the product of the query-indexed multiplicity matrix with the signal.
func TestBatchKernelsBitIdentical(t *testing.T) {
	type instance struct {
		n, m, batch int
		seed        uint64
		degenerate  string // "", "zeros", "ones"
	}
	cases := []instance{
		{n: 64, m: 16, batch: 1, seed: 1},
		{n: 130, m: 24, batch: 3, seed: 2},
		{n: 257, m: 40, batch: 5, seed: 3},
		{n: 300, m: 60, batch: 63, seed: 4},
		{n: 300, m: 60, batch: 64, seed: 5},
		{n: 300, m: 60, batch: 65, seed: 6},
		{n: 128, m: 32, batch: 130, seed: 7},
		{n: 200, m: 48, batch: 32, seed: 8, degenerate: "zeros"},
		{n: 200, m: 48, batch: 32, seed: 9, degenerate: "ones"},
		{n: 97, m: 31, batch: 17, seed: 10},
	}
	r := rng.NewRandSeeded(99)
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("n%d_m%d_B%d_%s", tc.n, tc.m, tc.batch, tc.degenerate)
		t.Run(name, func(t *testing.T) {
			g, err := pooling.RandomRegular{}.Build(tc.n, tc.m, pooling.BuildOptions{Seed: tc.seed})
			if err != nil {
				t.Fatal(err)
			}
			sigmas := make([]*bitvec.Vector, tc.batch)
			for b := range sigmas {
				switch tc.degenerate {
				case "zeros":
					sigmas[b] = bitvec.New(tc.n)
				case "ones":
					v := bitvec.New(tc.n)
					for i := 0; i < tc.n; i++ {
						v.Set(i)
					}
					sigmas[b] = v
				default:
					k := int(r.Uint64n(uint64(tc.n + 1)))
					sigmas[b] = bitvec.Random(tc.n, k, rng.NewRandSeeded(tc.seed*1000+uint64(b)))
				}
			}

			at := sparse.QueryMultiplicity(g)
			ref := make([][]int64, tc.batch)
			for b, s := range sigmas {
				x := make([]int64, tc.n)
				s.ForEachSet(func(i int) { x[i] = 1 })
				ref[b] = at.MulVec(x, nil)
				if want := Execute(g, s, Options{}).Y; !reflect.DeepEqual(want, ref[b]) {
					t.Fatalf("Execute row %d diverges from the matrix product", b)
				}
			}
			for _, workers := range []int{0, 1, 3} {
				if got := ExecuteBatch(g, sigmas, workers); !reflect.DeepEqual(got, ref) {
					t.Fatalf("workers %d: ExecuteBatch diverges from per-signal Execute", workers)
				}
			}
		})
	}
}

// TestBatchNoisyKernelsBitIdentical: the noisy batched path perturbs the
// same exact counts with the same per-cell streams regardless of worker
// count or batch composition — so it must reproduce per-signal Execute
// with a Noisy oracle bit for bit.
func TestBatchNoisyKernelsBitIdentical(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(400, 80, pooling.BuildOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4, 63, 64, 65} {
		batch := batch
		t.Run(fmt.Sprintf("B%d", batch), func(t *testing.T) {
			sigmas := make([]*bitvec.Vector, batch)
			seeds := make([]uint64, batch)
			for b := range sigmas {
				sigmas[b] = bitvec.Random(400, 5+b%11, rng.NewRandSeeded(uint64(300+b)))
				seeds[b] = uint64(7000 + b)
			}
			p := gaussPerturber{sigma: 1.5}
			var ref [][]int64
			for _, workers := range []int{0, 1, 3} {
				ys := ExecuteBatchNoisy(g, sigmas, workers, p, seeds)
				if ref == nil {
					ref = ys
					for b := range sigmas {
						want := Execute(g, sigmas[b], Options{Oracle: Noisy{Sigma: 1.5}, Seed: seeds[b]}).Y
						if !reflect.DeepEqual(ys[b], want) {
							t.Fatalf("noisy batch row %d diverges from Execute", b)
						}
					}
					continue
				}
				if !reflect.DeepEqual(ys, ref) {
					t.Fatalf("workers=%d: noisy batch not deterministic across worker counts", workers)
				}
			}
		})
	}
}
