package query

import (
	"testing"
	"testing/quick"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
)

// matrixProduct returns Aᵀx for the design's multiplicity matrix A,
// summed query by query over ForEachQuery: the linear-algebra view of
// the additive oracle, computed apart from the entry-side scatter that
// Counts uses.
func matrixProduct(g *graph.Bipartite, x []int64) []int64 {
	y := make([]int64, g.M())
	g.ForEachQuery(func(j int, ents, muls []int32) error {
		for p, e := range ents {
			y[j] += int64(muls[p]) * x[e]
		}
		return nil
	})
	return y
}

// fig1 reproduces the worked example of the paper's Fig. 1:
// σ = (1,1,0,0,1,0,0) and five queries with results (2,2,3,1,1).
func fig1(t *testing.T) (*graph.Bipartite, *bitvec.Vector) {
	t.Helper()
	d := pooling.Fixed{Queries: [][]int{
		{0, 1, 3},       // σ0+σ1 = 2
		{1, 4, 6},       // σ1+σ4 = 2
		{0, 1, 4, 6, 6}, // σ0+σ1+σ4 = 3 (multi-edge on the zero entry x6)
		{2, 4},          // σ4 = 1
		{0, 5, 5, 6, 6}, // σ0 = 1
	}}
	g, err := d.Build(7, 5, pooling.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.FromIndices(7, []int{0, 1, 4})
	return g, sigma
}

func TestAdditiveFig1Golden(t *testing.T) {
	g, sigma := fig1(t)
	res := Execute(g, sigma, Options{})
	want := []int64{2, 2, 3, 1, 1}
	for j, w := range want {
		if res.Y[j] != w {
			t.Fatalf("y = %v, want %v", res.Y, want)
		}
	}
	if res.Rounds != 1 {
		t.Fatalf("fully parallel execution took %d rounds", res.Rounds)
	}
}

func TestAdditiveMatchesCountIn(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.NewRandSeeded(seed)
		n := 20 + r.Intn(200)
		k := r.Intn(n/2 + 1)
		m := 5 + r.Intn(40)
		g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
		if err != nil {
			return false
		}
		sigma := bitvec.Random(n, k, r)
		res := Execute(g, sigma, Options{Seed: seed})
		ok := true
		g.ForEachQuery(func(j int, ents, muls []int32) error {
			flat := make([]int, 0, g.QuerySize(j))
			for p, e := range ents {
				for c := int32(0); c < muls[p]; c++ {
					flat = append(flat, int(e))
				}
			}
			ok = ok && res.Y[j] == int64(sigma.CountIn(flat))
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteDeterministicAcrossWorkers(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(500, 80, pooling.BuildOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(500, 20, rng.NewRandSeeded(4))
	a := Execute(g, sigma, Options{Workers: 1, Seed: 9, Oracle: Noisy{Sigma: 1.5}})
	b := Execute(g, sigma, Options{Workers: 8, Seed: 9, Oracle: Noisy{Sigma: 1.5}})
	for j := range a.Y {
		if a.Y[j] != b.Y[j] {
			t.Fatalf("noisy responses differ between worker counts at query %d", j)
		}
	}
}

func TestExecutePanicsOnSizeMismatch(t *testing.T) {
	g, _ := pooling.RandomRegular{}.Build(10, 3, pooling.BuildOptions{Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch not detected")
		}
	}()
	Execute(g, bitvec.New(11), Options{})
}

func TestQueryResultsEqualMatrixProduct(t *testing.T) {
	// y must equal A^T σ where A is the multiplicity matrix — the linear
	// algebra view of the additive oracle.
	g, err := pooling.RandomRegular{}.Build(300, 60, pooling.BuildOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(300, 17, rng.NewRandSeeded(6))
	res := Execute(g, sigma, Options{})
	x := make([]int64, 300)
	sigma.ForEachSet(func(i int) { x[i] = 1 })
	y2 := matrixProduct(g, x)
	for j := range res.Y {
		if res.Y[j] != y2[j] {
			t.Fatalf("query %d: oracle %d vs matrix %d", j, res.Y[j], y2[j])
		}
	}
}

func TestNoisyZeroSigmaIsExact(t *testing.T) {
	g, sigma := fig1(t)
	a := Execute(g, sigma, Options{Oracle: Noisy{Sigma: 0}})
	b := Execute(g, sigma, Options{})
	for j := range a.Y {
		if a.Y[j] != b.Y[j] {
			t.Fatal("σ=0 noisy oracle differs from additive")
		}
	}
}

func TestNoisyNeverNegative(t *testing.T) {
	g, sigma := fig1(t)
	for seed := uint64(0); seed < 50; seed++ {
		res := Execute(g, sigma, Options{Oracle: Noisy{Sigma: 5}, Seed: seed})
		for _, y := range res.Y {
			if y < 0 {
				t.Fatal("noisy oracle returned negative count")
			}
		}
	}
}

func TestThresholdOracle(t *testing.T) {
	g, sigma := fig1(t)
	res := Execute(g, sigma, Options{Oracle: Threshold{T: 2}})
	want := []int64{1, 1, 1, 0, 0}
	for j, w := range want {
		if res.Y[j] != w {
			t.Fatalf("threshold(2) responses = %v, want %v", res.Y, want)
		}
	}
	// T=0 clamps to 1 (classical group testing).
	res = Execute(g, sigma, Options{Oracle: Threshold{}})
	want = []int64{1, 1, 1, 1, 1}
	for j, w := range want {
		if res.Y[j] != w {
			t.Fatalf("threshold(1) responses = %v, want %v", res.Y, want)
		}
	}
}

func TestOracleNames(t *testing.T) {
	for _, o := range []Oracle{Additive{}, Noisy{Sigma: 1}, Threshold{T: 3}} {
		if o.Name() == "" {
			t.Fatal("oracle with empty name")
		}
	}
}

func TestScheduleFullyParallel(t *testing.T) {
	d := []time.Duration{3, 1, 4, 1, 5}
	rounds, makespan, total := Schedule(d, 0)
	if rounds != 1 || makespan != 5 || total != 14 {
		t.Fatalf("fully parallel schedule = (%d, %d, %d)", rounds, makespan, total)
	}
	// units >= m behaves the same.
	rounds, makespan, _ = Schedule(d, 10)
	if rounds != 1 || makespan != 5 {
		t.Fatal("units >= m should be one round")
	}
}

func TestScheduleSequential(t *testing.T) {
	d := []time.Duration{3, 1, 4}
	rounds, makespan, total := Schedule(d, 1)
	if rounds != 3 || makespan != 8 || total != 8 {
		t.Fatalf("sequential schedule = (%d, %d, %d)", rounds, makespan, total)
	}
}

func TestScheduleUniformRounds(t *testing.T) {
	// 10 unit-length queries on 4 units: ⌈10/4⌉ = 3 rounds, makespan 3.
	d := make([]time.Duration, 10)
	for i := range d {
		d[i] = 1
	}
	rounds, makespan, total := Schedule(d, 4)
	if rounds != 3 || makespan != 3 || total != 10 {
		t.Fatalf("uniform schedule = (%d, %d, %d)", rounds, makespan, total)
	}
}

func TestScheduleEmpty(t *testing.T) {
	rounds, makespan, total := Schedule(nil, 4)
	if rounds != 0 || makespan != 0 || total != 0 {
		t.Fatal("empty schedule must be zero")
	}
}

func TestExecuteWithUnitsAndLatency(t *testing.T) {
	g, sigma := fig1(t)
	res := Execute(g, sigma, Options{
		Units:   2,
		Latency: ConstantLatency{D: 10 * time.Millisecond},
	})
	if res.Rounds != 3 { // ⌈5/2⌉
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if res.Makespan != 30*time.Millisecond {
		t.Fatalf("makespan = %v, want 30ms", res.Makespan)
	}
	if res.TotalWork != 50*time.Millisecond {
		t.Fatalf("total = %v, want 50ms", res.TotalWork)
	}
}

func TestUniformLatencyBoundsAndDeterminism(t *testing.T) {
	u := UniformLatency{Min: 5, Max: 9}
	r := rng.NewRandSeeded(1)
	for i := 0; i < 1000; i++ {
		d := u.Duration(i, r)
		if d < 5 || d > 9 {
			t.Fatalf("uniform latency %d out of [5,9]", d)
		}
	}
	// Degenerate range.
	if (UniformLatency{Min: 7, Max: 7}).Duration(0, r) != 7 {
		t.Fatal("degenerate uniform latency wrong")
	}
	if (UniformLatency{Min: 7, Max: 3}).Duration(0, r) != 7 {
		t.Fatal("inverted uniform latency should clamp to Min")
	}
}

func TestMakespanDecreasesWithMoreUnits(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(200, 64, pooling.BuildOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(200, 10, rng.NewRandSeeded(8))
	prev := time.Duration(1<<62 - 1)
	for _, units := range []int{1, 2, 4, 8, 0} {
		res := Execute(g, sigma, Options{Units: units, Seed: 2,
			Latency: UniformLatency{Min: time.Millisecond, Max: 3 * time.Millisecond}})
		if res.Makespan > prev {
			t.Fatalf("makespan grew when adding units: %v > %v at L=%d", res.Makespan, prev, units)
		}
		prev = res.Makespan
	}
}

func TestExecuteBatchMatchesExecute(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(300, 90, pooling.BuildOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 7
	sigmas := make([]*bitvec.Vector, batch)
	for b := range sigmas {
		sigmas[b] = bitvec.Random(300, 4+b, rng.NewRandSeeded(uint64(50+b)))
	}
	for _, workers := range []int{0, 1, 3} {
		ys := ExecuteBatch(g, sigmas, workers)
		if len(ys) != batch {
			t.Fatalf("got %d rows, want %d", len(ys), batch)
		}
		for b := range sigmas {
			want := Execute(g, sigmas[b], Options{}).Y
			for j := range want {
				if ys[b][j] != want[j] {
					t.Fatalf("workers=%d signal=%d query=%d: batch %d, serial %d",
						workers, b, j, ys[b][j], want[j])
				}
			}
		}
	}
	// Empty batch and empty design are fine.
	if got := ExecuteBatch(g, nil, 0); len(got) != 0 {
		t.Fatal("empty batch should yield no rows")
	}
}
