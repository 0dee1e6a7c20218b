package decoder

import (
	"errors"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
	"pooleddata/internal/thresholds"
)

func instance(t testing.TB, n, k, m int, seed uint64) (*graph.Bipartite, *bitvec.Vector, []int64) {
	t.Helper()
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(seed^0xbeef))
	res := query.Execute(g, sigma, query.Options{Seed: seed})
	return g, sigma, res.Y
}

func TestPredictMatchesOracle(t *testing.T) {
	g, sigma, y := instance(t, 150, 7, 40, 1)
	pred := Predict(g, sigma)
	for j := range y {
		if pred[j] != y[j] {
			t.Fatalf("Predict diverges from oracle at query %d", j)
		}
	}
	if !Consistent(g, sigma, y) || Residual(g, sigma, y) != 0 {
		t.Fatal("ground truth must be consistent with its own results")
	}
}

func TestResidualPositiveForWrongSignal(t *testing.T) {
	g, sigma, y := instance(t, 150, 7, 60, 2)
	wrong := sigma.Clone()
	// Move one one-entry somewhere else.
	sup := wrong.Support()
	wrong.Clear(sup[0])
	for i := 0; i < 150; i++ {
		if !sigma.Get(i) {
			wrong.Set(i)
			break
		}
	}
	if Consistent(g, wrong, y) {
		t.Fatal("a perturbed signal should not be consistent at m=60 (w.h.p.)")
	}
}

func TestAllDecodersValidateInput(t *testing.T) {
	g, _, y := instance(t, 50, 3, 20, 3)
	decs := []Decoder{MN{}, Exhaustive{}, Greedy{}, BP{}, Refined{}}
	for _, d := range decs {
		if _, err := d.Decode(g, y[:5], 3); err == nil {
			t.Fatalf("%s accepted short y", d.Name())
		}
		if _, err := d.Decode(g, y, -1); err == nil {
			t.Fatalf("%s accepted negative k", d.Name())
		}
		if _, err := d.Decode(g, y, 51); err == nil {
			t.Fatalf("%s accepted k > n", d.Name())
		}
		if d.Name() == "" {
			t.Fatal("empty decoder name")
		}
	}
}

func TestAllDecodersRecoverEasyInstance(t *testing.T) {
	// Far above every threshold all decoders must succeed.
	n, k := 120, 3
	m := int(3 * thresholds.MN(n, k))
	g, sigma, y := instance(t, n, k, m, 4)
	for _, d := range []Decoder{MN{}, Exhaustive{}, Greedy{}, BP{}, Refined{}} {
		est, err := d.Decode(g, y, k)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if !est.Equal(sigma) {
			t.Fatalf("%s failed on an easy instance (overlap %.2f)",
				d.Name(), bitvec.OverlapFraction(sigma, est))
		}
	}
}

func TestDecodersReturnWeightK(t *testing.T) {
	// Below threshold estimates are wrong but must still have weight k
	// (except Exhaustive, which may fail to find any consistent signal
	// only in noisy settings — with exact data σ itself is consistent).
	n, k, m := 200, 8, 40
	g, _, y := instance(t, n, k, m, 5)
	for _, d := range []Decoder{MN{}, Greedy{}, BP{}, Refined{}} {
		est, err := d.Decode(g, y, k)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if est.Weight() != k {
			t.Fatalf("%s returned weight %d, want %d", d.Name(), est.Weight(), k)
		}
	}
}

func TestExhaustiveFindsConsistentSignal(t *testing.T) {
	n, k, m := 30, 3, 25
	g, sigma, y := instance(t, n, k, m, 6)
	est, err := (Exhaustive{}).Decode(g, y, k)
	if err != nil {
		t.Fatal(err)
	}
	if !Consistent(g, est, y) {
		t.Fatal("exhaustive returned an inconsistent signal")
	}
	// With this many queries on n=30 the solution is unique, so it must
	// be σ itself.
	if !est.Equal(sigma) {
		t.Fatal("exhaustive found a different consistent signal where σ should be unique")
	}
}

func TestExhaustiveCountConsistent(t *testing.T) {
	// With zero queries every weight-k signal is consistent: C(6,2) = 15.
	g, err := pooling.RandomRegular{}.Build(6, 0, pooling.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, count, err := (Exhaustive{}).CountConsistent(g, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if count != 15 {
		t.Fatalf("Z_2 with no queries = %d, want C(6,2) = 15", count)
	}
}

func TestExhaustiveCountLimit(t *testing.T) {
	g, err := pooling.RandomRegular{}.Build(8, 0, pooling.BuildOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	first, count, err := (Exhaustive{}).CountConsistent(g, nil, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count with limit 2 = %d", count)
	}
	if first == nil || first.Weight() != 2 {
		t.Fatal("first consistent signal missing or wrong weight")
	}
}

func TestExhaustiveUniquenessTracksTheorem2(t *testing.T) {
	// Around the information-theoretic threshold, uniqueness of the
	// consistent signal should flip from "usually not" to "usually yes".
	// Tiny n keeps the search cheap; the first-moment behaviour is still
	// visible.
	n, k := 40, 4
	mLow, mHigh := 4, 60
	uniq := func(m int) int {
		u := 0
		for seed := uint64(0); seed < 10; seed++ {
			g, _, y := instance(t, n, k, m, 100+seed)
			_, count, err := (Exhaustive{}).CountConsistent(g, y, k, 2)
			if err != nil {
				t.Fatal(err)
			}
			if count == 1 {
				u++
			}
		}
		return u
	}
	lo, hi := uniq(mLow), uniq(mHigh)
	if hi <= lo {
		t.Fatalf("uniqueness did not improve with m: %d/10 at m=%d vs %d/10 at m=%d",
			lo, mLow, hi, mHigh)
	}
	if hi < 9 {
		t.Fatalf("only %d/10 unique at m=%d", hi, mHigh)
	}
}

func TestExhaustiveBudget(t *testing.T) {
	// One unsatisfiable query forces the search to sweep a large portion
	// of the C(60,6) tree; a 50-node budget must trip first.
	g, _, _ := instance(t, 60, 6, 1, 9)
	bad := []int64{int64(g.QuerySize(0)) + 1}
	_, err := (Exhaustive{MaxNodes: 50}).Decode(g, bad, 6)
	if !errors.Is(err, ErrSearchSpaceTooLarge) {
		t.Fatalf("expected budget error, got %v", err)
	}
}

func TestExhaustiveInconsistent(t *testing.T) {
	// Corrupt the results so no weight-k signal can reproduce them: make a
	// query claim more ones than its pool size.
	g, _, y := instance(t, 20, 2, 10, 10)
	bad := make([]int64, len(y))
	copy(bad, y)
	bad[0] = int64(g.QuerySize(0)) + 5
	_, err := (Exhaustive{}).Decode(g, bad, 2)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("expected inconsistency error, got %v", err)
	}
}

func TestGreedyBeatsNothing(t *testing.T) {
	// Greedy with k=0 returns the zero vector.
	g, _, y := instance(t, 50, 0, 10, 11)
	est, err := (Greedy{}).Decode(g, y, 0)
	if err != nil || est.Weight() != 0 {
		t.Fatal("greedy k=0 wrong")
	}
}

func TestRefinedNeverWorseThanMN(t *testing.T) {
	// The refinement only commits residual-decreasing swaps, so its final
	// residual is at most MN's.
	for seed := uint64(0); seed < 10; seed++ {
		n, k := 200, 8
		m := int(0.8 * thresholds.MN(n, k)) // hard-ish regime
		g, _, y := instance(t, n, k, m, 20+seed)
		mnEst, err := (MN{}).Decode(g, y, k)
		if err != nil {
			t.Fatal(err)
		}
		refEst, err := (Refined{}).Decode(g, y, k)
		if err != nil {
			t.Fatal(err)
		}
		if Residual(g, refEst, y) > Residual(g, mnEst, y) {
			t.Fatalf("seed %d: refinement increased the residual", seed)
		}
	}
}

// TestRefinedHardInstances decodes 40 seeded signals below MN's
// threshold (n = 1500, m = 130, k = 8), with exact counts and at
// σ = 0.5: refinement returns the planted signal on every one.
func TestRefinedHardInstances(t *testing.T) {
	const n, m, k = 1500, 130, 8
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []query.Oracle{nil, query.Noisy{Sigma: 0.5}} {
		missed := 0
		for i := uint64(0); i < 40; i++ {
			sigma := bitvec.Random(n, k, rng.NewRandSeeded(300+i))
			y := query.Execute(g, sigma, query.Options{Oracle: oracle, Seed: 900 + i}).Y
			est, err := (Refined{}).Decode(g, y, k)
			if err != nil {
				t.Fatal(err)
			}
			if !est.Equal(sigma) {
				missed++
			}
		}
		if missed > 0 {
			t.Errorf("oracle %v: refinement missed %d of 40 planted signals", oracle, missed)
		}
	}
}

// TestRefinedKeepsConsistentMN checks, on exact counts, that refinement
// returns MN's support whenever MN's answer reproduces every count. The
// random-regular designs store their queries as bits, the
// constant-column ones as indices.
func TestRefinedKeepsConsistentMN(t *testing.T) {
	const n, k = 1500, 8
	consistent := 0
	for _, design := range []pooling.Design{pooling.RandomRegular{}, pooling.ConstantColumn{D: 4}, pooling.ConstantColumn{D: 10}} {
		for _, m := range []int{230, 400} {
			g, err := design.Build(n, m, pooling.BuildOptions{Seed: uint64(m)})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 15; i++ {
				sigma := bitvec.Random(n, k, rng.NewRandSeeded(i))
				y := query.Execute(g, sigma, query.Options{Seed: i}).Y
				mnEst, _ := (MN{}).Decode(g, y, k)
				if !Consistent(g, mnEst, y) {
					continue
				}
				consistent++
				est, err := (Refined{}).Decode(g, y, k)
				if err != nil {
					t.Fatal(err)
				}
				if !est.Equal(mnEst) {
					t.Fatalf("%s m=%d signal %d: refinement moved consistent MN support %v to %v",
						design.Name(), m, i, mnEst.Support(), est.Support())
				}
			}
		}
	}
	if consistent < 40 {
		t.Fatalf("only %d consistent MN answers; the check needs more", consistent)
	}
}

func TestBPZeroK(t *testing.T) {
	g, _, y := instance(t, 50, 0, 10, 12)
	est, err := (BP{}).Decode(g, y, 0)
	if err != nil || est.Weight() != 0 {
		t.Fatal("bp k=0 wrong")
	}
}

func TestBPCustomParameters(t *testing.T) {
	n, k := 150, 5
	m := int(2 * thresholds.MN(n, k))
	g, sigma, y := instance(t, n, k, m, 13)
	est, err := (BP{Iterations: 50, Damping: 0.3}).Decode(g, y, k)
	if err != nil {
		t.Fatal(err)
	}
	if !est.Equal(sigma) {
		t.Fatal("BP with custom parameters failed an easy instance")
	}
}

func TestDecoderComparisonMidRegime(t *testing.T) {
	// Between the info-theoretic and the MN threshold, the smarter
	// decoders (BP, Refined) should find at least as many one-entries as
	// plain MN on average — the "who wins" shape of the baseline
	// comparison.
	n, k := 300, 10
	m := int(0.75 * thresholds.MN(n, k))
	var mnHits, bpHits, refHits int
	for seed := uint64(0); seed < 15; seed++ {
		g, sigma, y := instance(t, n, k, m, 40+seed)
		a, _ := (MN{}).Decode(g, y, k)
		b, _ := (BP{}).Decode(g, y, k)
		c, _ := (Refined{}).Decode(g, y, k)
		mnHits += sigma.Overlap(a)
		bpHits += sigma.Overlap(b)
		refHits += sigma.Overlap(c)
	}
	if refHits < mnHits {
		t.Fatalf("refined (%d) found fewer ones than MN (%d)", refHits, mnHits)
	}
	if bpHits < mnHits/2 {
		t.Fatalf("bp (%d) dramatically underperforms MN (%d)", bpHits, mnHits)
	}
}
