package noise

import (
	"encoding/json"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
	"pooleddata/internal/threshgt"
)

func TestCanonAndKeys(t *testing.T) {
	cases := []struct {
		in   Model
		key  string
		str  string
		exct bool
	}{
		{Model{}, "exact", "exact", true},
		{Model{Kind: Exact, Sigma: 3, T: 9, Seed: 1}, "exact", "exact", true},
		{Model{Kind: Gaussian, Sigma: 0}, "exact", "exact", true},
		{Model{Kind: Gaussian, Sigma: 0.5}, "gaussian(sigma=0.5)", "gaussian:0.5", false},
		{Model{Kind: Gaussian, Sigma: 0.5, Seed: 7}, "gaussian(sigma=0.5)", "gaussian:0.5:7", false},
		{Model{Kind: Threshold}, "threshold(T=1)", "threshold:1", false},
		{Model{Kind: Threshold, T: 2, Sigma: 9}, "threshold(T=2)", "threshold:2", false},
	}
	for _, c := range cases {
		if got := c.in.Key(); got != c.key {
			t.Errorf("Key(%+v) = %q, want %q", c.in, got, c.key)
		}
		if got := c.in.String(); got != c.str {
			t.Errorf("String(%+v) = %q, want %q", c.in, got, c.str)
		}
		if got := c.in.IsExact(); got != c.exct {
			t.Errorf("IsExact(%+v) = %v, want %v", c.in, got, c.exct)
		}
		// Canon must be idempotent and make equal models comparable.
		if c.in.Canon() != c.in.Canon().Canon() {
			t.Errorf("Canon not idempotent for %+v", c.in)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Model{{}, {Kind: Exact}, {Kind: Gaussian, Sigma: 1}, {Kind: Threshold, T: 3}}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", m, err)
		}
	}
	bad := []Model{
		{Kind: "poisson"},
		{Kind: Gaussian, Sigma: -1},
		{Kind: Threshold, T: -2},
		// Parameters without (or contradicting) the kind must not be
		// silently dropped by canonicalization.
		{Sigma: 4},
		{T: 2},
		{Kind: Exact, Sigma: 1},
		{Kind: Gaussian, Sigma: 1, T: 2},
		{Kind: Threshold, T: 2, Sigma: 1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", m)
		}
	}
	// Seed alone is harmless on any kind.
	if err := (Model{Kind: Threshold, T: 2, Seed: 9}).Validate(); err != nil {
		t.Errorf("seed on threshold rejected: %v", err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, m := range []Model{
		{Kind: Exact},
		{Kind: Gaussian, Sigma: 0.25},
		{Kind: Gaussian, Sigma: 2, Seed: 99},
		{Kind: Threshold, T: 4},
	} {
		got, err := Parse(m.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", m.String(), err)
		}
		if got.Canon() != m.Canon() {
			t.Fatalf("Parse(%q) = %+v, want %+v", m.String(), got, m)
		}
	}
	if m, err := Parse(""); err != nil || !m.IsExact() {
		t.Fatalf("Parse(\"\") = %+v, %v", m, err)
	}
	for _, s := range []string{"poisson", "gaussian", "gaussian:x", "threshold", "threshold:1:2", "exact:1"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestJSONWireForm(t *testing.T) {
	buf, err := json.Marshal(Model{Kind: Gaussian, Sigma: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"gaussian","sigma":0.5,"seed":7}`
	if string(buf) != want {
		t.Fatalf("json = %s, want %s", buf, want)
	}
	var m Model
	if err := json.Unmarshal([]byte(`{"kind":"threshold","t":2}`), &m); err != nil {
		t.Fatal(err)
	}
	if m.Canon() != (Model{Kind: Threshold, T: 2}) {
		t.Fatalf("unmarshaled %+v", m)
	}
}

func TestPerturbMatchesOracles(t *testing.T) {
	// Perturb on the exact count must reproduce the oracle's arithmetic
	// with the same stream.
	for _, m := range []Model{
		{Kind: Gaussian, Sigma: 1.5},
		{Kind: Threshold, T: 3},
		{},
	} {
		oracle := m.Oracle()
		for v := int64(0); v < 12; v++ {
			r1 := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(42, uint64(v))))
			r2 := rng.NewRand(rng.NewXoshiro(rng.DeriveSeed(42, uint64(v))))
			want := oracle.Answer(v, r1)
			got := m.Perturb(v, r2)
			if got != want {
				t.Fatalf("%s: Perturb(%d) = %d, oracle = %d", m.Key(), v, got, want)
			}
		}
	}
}

func TestBatchNoisyMatchesExecutePerSignal(t *testing.T) {
	// ExecuteBatchNoisy row b must be bit-identical to Execute with the
	// model's oracle and the per-signal seed — independent of batch
	// composition and worker count.
	g, err := pooling.RandomRegular{}.Build(200, 80, pooling.BuildOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := Model{Kind: Gaussian, Sigma: 1.2, Seed: 77}
	const nb = 5
	sigmas := make([]*bitvec.Vector, nb)
	for b := range sigmas {
		sigmas[b] = bitvec.Random(200, 4, rng.NewRandSeeded(uint64(10+b)))
	}
	for _, workers := range []int{1, 4} {
		ys := query.ExecuteBatchNoisy(g, sigmas, workers, m, m.SignalSeeds(nb))
		for b := range sigmas {
			want := query.Execute(g, sigmas[b], query.Options{
				Oracle: m.Oracle(), Seed: m.SignalSeed(b),
			}).Y
			for j := range want {
				if ys[b][j] != want[j] {
					t.Fatalf("workers=%d signal %d query %d: batch %d, execute %d",
						workers, b, j, ys[b][j], want[j])
				}
			}
		}
	}
	// Same model, same batch → identical noise (reproducibility).
	a := query.ExecuteBatchNoisy(g, sigmas, 3, m, m.SignalSeeds(nb))
	b := query.ExecuteBatchNoisy(g, sigmas, 2, m, m.SignalSeeds(nb))
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("same seed diverged at (%d,%d)", i, j)
			}
		}
	}
	// A different seed must actually change something.
	m2 := m
	m2.Seed = 78
	c := query.ExecuteBatchNoisy(g, sigmas, 3, m2, m2.SignalSeeds(nb))
	same := true
	for i := range a {
		for j := range a[i] {
			if a[i][j] != c[i][j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
}

func TestSelectDecoderPolicy(t *testing.T) {
	sp := SchemeParams{N: 1000, M: 300, K: 10}
	cases := []struct {
		m    Model
		want string
	}{
		{Model{}, decoder.MN{}.Name()},
		{Model{Kind: Gaussian, Sigma: 0.5}, decoder.Refined{}.Name()},
		{Model{Kind: Gaussian, Sigma: 5}, decoder.LP{}.Name()},
		{Model{Kind: Threshold, T: 1}, threshgt.Scored{}.Name()},
		{Model{Kind: Threshold, T: 3}, threshgt.Scored{}.Name()},
	}
	for _, c := range cases {
		if got := SelectDecoder(c.m, sp).Name(); got != c.want {
			t.Errorf("SelectDecoder(%s) = %s, want %s", c.m.Key(), got, c.want)
		}
	}
	// Calibration hook: an override wins over the default.
	p := Policy{Overrides: map[Kind]Selector{
		Gaussian: func(Model, SchemeParams) decoder.Decoder { return decoder.BP{} },
	}}
	if got := p.Select(Model{Kind: Gaussian, Sigma: 0.5}, sp).Name(); got != (decoder.BP{}).Name() {
		t.Errorf("override ignored: got %s", got)
	}
	// A nil override result falls back to the default.
	p.Overrides[Gaussian] = func(Model, SchemeParams) decoder.Decoder { return nil }
	if got := p.Select(Model{Kind: Gaussian, Sigma: 0.5}, sp).Name(); got != (decoder.Refined{}).Name() {
		t.Errorf("nil override fallback: got %s", got)
	}
}

func TestResidualSlack(t *testing.T) {
	if got := (Model{}).ResidualSlack(100); got != 0 {
		t.Fatalf("exact slack %d", got)
	}
	if got := (Model{Kind: Threshold, T: 2}).ResidualSlack(100); got != 0 {
		t.Fatalf("threshold slack %d", got)
	}
	s1 := Model{Kind: Gaussian, Sigma: 1}.ResidualSlack(100)
	s2 := Model{Kind: Gaussian, Sigma: 2}.ResidualSlack(100)
	if s1 <= 0 || s2 <= s1 {
		t.Fatalf("gaussian slack not increasing: σ=1 → %d, σ=2 → %d", s1, s2)
	}
	// Slack must cover the typical residual of the true signal: E|noise|
	// per query is σ·√(2/π) ≈ 0.8σ, so 100 queries at σ=1 misfit ≈ 80.
	if s1 < 80 || s1 > 120 {
		t.Fatalf("σ=1 slack %d outside plausible [80,120]", s1)
	}
}

func TestTransformExpected(t *testing.T) {
	m := Model{Kind: Threshold, T: 3}
	for v, want := range map[int64]int64{0: 0, 2: 0, 3: 1, 9: 1} {
		if got := m.TransformExpected(v); got != want {
			t.Errorf("threshold transform(%d) = %d, want %d", v, got, want)
		}
	}
	if got := (Model{Kind: Gaussian, Sigma: 1}).TransformExpected(5); got != 5 {
		t.Errorf("gaussian transform should be identity, got %d", got)
	}
}
