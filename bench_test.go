package pooled

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (§V has Figures 2, 3 and 4 and no tables), plus the §VI headline claim,
// a Theorem 2 uniqueness sweep, the ablation studies from DESIGN.md, and
// micro-benchmarks of the parallel kernels.
//
// The figure benchmarks run scaled-down sweeps (few trials, coarse grids)
// so `go test -bench=.` terminates quickly; `cmd/experiment` regenerates
// the full-resolution figures. Custom metrics report the scientific
// quantity next to the timing: success rates, overlaps, speedups.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/decoder"
	"pooleddata/internal/experiments"
	"pooleddata/internal/mn"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
	"pooleddata/internal/thresholds"
	"pooleddata/metrics"
)

// skipSweepIfShort keeps `go test -short -bench .` quick in CI: the
// figure sweeps decode hundreds of instances per iteration, while the
// micro-benchmarks below stay cheap enough to run everywhere.
func skipSweepIfShort(b *testing.B) {
	b.Helper()
	if testing.Short() {
		b.Skip("skipping figure sweep in -short mode")
	}
}

// benchCfg is the scaled-down sweep configuration for benchmarks.
func benchCfg(trials int, seed uint64) experiments.Config {
	return experiments.Config{Trials: trials, Seed: seed}
}

// BenchmarkFig2RequiredQueries regenerates Fig. 2 (required m for exact
// reconstruction vs n) on a reduced grid.
func BenchmarkFig2RequiredQueries(b *testing.B) {
	skipSweepIfShort(b)
	ns := []int{100, 300, 1000}
	var lastMean float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig2(ns, []float64{0.3}, benchCfg(3, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		lastMean = series[0].Points[len(ns)-1].Mean
	}
	b.ReportMetric(lastMean, "required_m_n1000")
}

// BenchmarkFig3SuccessRate regenerates Fig. 3 (success rate vs m) at
// n = 1000 on a reduced grid around the θ = 0.3 transition.
func BenchmarkFig3SuccessRate(b *testing.B) {
	skipSweepIfShort(b)
	n := 1000
	k := thresholds.KFromTheta(n, 0.3)
	thr := thresholds.MN(n, k)
	ms := []int{int(thr * 0.5), int(thr * 1.0), int(thr * 1.5)}
	var transition float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig3(n, []float64{0.3}, ms, benchCfg(4, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		transition = series[0].Points[2].Mean - series[0].Points[0].Mean
	}
	b.ReportMetric(transition, "rate_jump_across_threshold")
}

// BenchmarkFig4Overlap regenerates Fig. 4 (overlap vs m) at n = 1000.
func BenchmarkFig4Overlap(b *testing.B) {
	skipSweepIfShort(b)
	n := 1000
	k := thresholds.KFromTheta(n, 0.3)
	thr := thresholds.MN(n, k)
	ms := []int{int(thr * 0.5), int(thr * 1.0)}
	var atThreshold float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig4(n, []float64{0.3}, ms, benchCfg(4, uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		atThreshold = series[0].Points[1].Mean
	}
	b.ReportMetric(atThreshold, "overlap_at_threshold")
}

// BenchmarkHeadlineClaim measures the §VI claim: ≈99% of one-entries
// found at n=1000, θ=0.3, m=220.
func BenchmarkHeadlineClaim(b *testing.B) {
	skipSweepIfShort(b)
	var overlap float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Headline(benchCfg(10, 99))
		if err != nil {
			b.Fatal(err)
		}
		overlap = res.MeanOverlap
	}
	b.ReportMetric(overlap, "mean_overlap_m220")
}

// BenchmarkTheorem2Uniqueness sweeps the exhaustive-search uniqueness
// probability across the information-theoretic threshold (the empirical
// face of Theorem 2).
func BenchmarkTheorem2Uniqueness(b *testing.B) {
	skipSweepIfShort(b)
	var hi float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.InfoTheoretic(40, 4, []int{10, 60}, benchCfg(6, 31))
		if err != nil {
			b.Fatal(err)
		}
		hi = s.Points[1].Mean
	}
	b.ReportMetric(hi, "uniqueness_above_threshold")
}

// BenchmarkAblationDesigns compares the three pooling designs at a fixed
// operating point (DESIGN.md ablation).
func BenchmarkAblationDesigns(b *testing.B) {
	skipSweepIfShort(b)
	n, k := 500, 7
	m := int(1.5 * thresholds.MN(n, k))
	var regular float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.CompareDesigns(n, k, []int{m}, benchCfg(4, 13))
		if err != nil {
			b.Fatal(err)
		}
		regular = series[0].Points[0].Mean
	}
	b.ReportMetric(regular, "regular_design_overlap")
}

// BenchmarkAblationDecoders compares the decoder zoo at a fixed operating
// point between the two thresholds.
func BenchmarkAblationDecoders(b *testing.B) {
	skipSweepIfShort(b)
	n, k := 400, 6
	m := int(0.9 * thresholds.MN(n, k))
	var mnRate float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.CompareDecoders(n, k, []int{m}, benchCfg(4, 17))
		if err != nil {
			b.Fatal(err)
		}
		mnRate = series[0].Points[0].Mean
	}
	b.ReportMetric(mnRate, "mn_success_below_threshold")
}

// BenchmarkAblationPartialParallel measures the L-unit scheduling sweep
// of the §VI open problem.
func BenchmarkAblationPartialParallel(b *testing.B) {
	skipSweepIfShort(b)
	var speedup16 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.PartialParallel(500, 7, 128, []int{1, 16, 0},
			query.ConstantLatency{D: time.Second}, benchCfg(1, 23))
		if err != nil {
			b.Fatal(err)
		}
		speedup16 = pts[1].Speedup
	}
	b.ReportMetric(speedup16, "speedup_L16")
}

// BenchmarkAblationNoise sweeps the noisy-oracle extension.
func BenchmarkAblationNoise(b *testing.B) {
	skipSweepIfShort(b)
	n, k := 400, 6
	m := int(1.5 * thresholds.MN(n, k))
	var atSigma2 float64
	for i := 0; i < b.N; i++ {
		s, err := experiments.NoiseRobustness(n, k, m, []float64{0, 2}, benchCfg(4, 29))
		if err != nil {
			b.Fatal(err)
		}
		atSigma2 = s.Points[1].Mean
	}
	b.ReportMetric(atSigma2, "overlap_sigma2")
}

// BenchmarkFiniteSizeCheck regenerates the §V finite-size remark series.
func BenchmarkFiniteSizeCheck(b *testing.B) {
	skipSweepIfShort(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.FiniteSizeCheck([]int{300, 1000}, 0.3, benchCfg(2, 37))
		if err != nil {
			b.Fatal(err)
		}
		ratio = series[0].Points[1].Mean / series[1].Points[1].Mean
	}
	b.ReportMetric(ratio, "measured_over_asymptotic")
}

// BenchmarkAblationTradeoff measures the sequential-vs-parallel
// comparison (adaptive bisection vs one-round MN vs individual testing).
func BenchmarkAblationTradeoff(b *testing.B) {
	skipSweepIfShort(b)
	var adaptiveQueries float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AdaptiveVsParallel(1000, 8, benchCfg(4, 41))
		if err != nil {
			b.Fatal(err)
		}
		adaptiveQueries = rows[0].Queries
	}
	b.ReportMetric(adaptiveQueries, "adaptive_queries")
}

// BenchmarkAblationThresholdGT measures the binary group testing
// extension sweep (§VI outlook, T = 1).
func BenchmarkAblationThresholdGT(b *testing.B) {
	skipSweepIfShort(b)
	var compRate float64
	for i := 0; i < b.N; i++ {
		series, err := experiments.ThresholdGT(300, 5, 1, []int{200}, benchCfg(4, 43))
		if err != nil {
			b.Fatal(err)
		}
		compRate = series[1].Points[0].Mean
	}
	b.ReportMetric(compRate, "comp_success")
}

// --- micro-benchmarks of the parallel kernels ---

// BenchmarkDesignBuild measures parallel design construction (n = 10^4,
// m = 600: the HIV-example scale).
func BenchmarkDesignBuild(b *testing.B) {
	des := pooling.RandomRegular{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := des.Build(10000, 600, pooling.BuildOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignBuildSparse measures a very sparse custom design
// (Γ = 7, n = 10^5, m = 2000). Each query's ⌈n/64⌉-word bitmap walk costs
// more here than sorting its seven draws would; no served workload has
// Γ ≪ n/64, and this keeps that accepted trade visible.
func BenchmarkDesignBuildSparse(b *testing.B) {
	des := pooling.RandomRegular{Gamma: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := des.Build(100000, 2000, pooling.BuildOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryExecute measures the parallel measurement round.
func BenchmarkQueryExecute(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(10000, 16, rng.NewRandSeeded(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query.Execute(g, sigma, query.Options{Seed: uint64(i)})
	}
}

// BenchmarkPsi measures the decoder's bulk kernel Ψ = M·y, the sum of y
// over each entry's distinct queries, at the home scale (n = 10^4,
// m = 600) on one core: on the paper's design, which the graph stores as
// bits, and on a Bernoulli design of density 1/100, which keeps its
// query-index array.
func BenchmarkPsi(b *testing.B) {
	for _, bc := range []struct {
		name   string
		design pooling.Design
	}{
		{"bits/random-regular", pooling.RandomRegular{}},
		{"index/bernoulli-0.01", pooling.Bernoulli{P: 0.01}},
	} {
		g, err := bc.design.Build(10000, 600, pooling.BuildOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		sigma := bitvec.Random(10000, 16, rng.NewRandSeeded(2))
		y := query.Execute(g, sigma, query.Options{Seed: 3}).Y
		psi := make([]int64, g.N())
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.Psi(y, psi, 1)
			}
		})
	}
}

// BenchmarkMNDecode measures the full MN-Algorithm on the HIV-example
// scale.
func BenchmarkMNDecode(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(10000, 16, rng.NewRandSeeded(2))
	y := query.Execute(g, sigma, query.Options{Seed: 3}).Y
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mn.Reconstruct(g, y, 16, mn.Options{})
	}
}

// BenchmarkRefinedExact measures MN with swap refinement at the home
// scale on exact counts MN gets wrong (its residual is 630), which the
// refinement repairs.
func BenchmarkRefinedExact(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(10000, 16, rng.NewRandSeeded(4))
	y := query.Execute(g, sigma, query.Options{Seed: 3}).Y
	if est, err := (decoder.Refined{}).Decode(g, y, 16); err != nil || !est.Equal(sigma) {
		b.Fatalf("refinement did not recover the signal (err %v)", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (decoder.Refined{}).Decode(g, y, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefinedGaussian measures MN with swap refinement, the
// service's pick for gaussian counts with σ < 3, at the home scale on
// σ = 0.5 counts.
func BenchmarkRefinedGaussian(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(10000, 600, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(10000, 16, rng.NewRandSeeded(2))
	y := query.Execute(g, sigma, query.Options{Oracle: query.Noisy{Sigma: 0.5}, Seed: 3}).Y
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (decoder.Refined{}).Decode(g, y, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecoders times each baseline decoder on one mid-size instance.
func BenchmarkDecoders(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(2000, 300, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(2000, 9, rng.NewRandSeeded(2))
	y := query.Execute(g, sigma, query.Options{Seed: 3}).Y
	for _, dec := range []decoder.Decoder{decoder.MN{}, decoder.Greedy{}, decoder.BP{}, decoder.Refined{}, decoder.LP{}} {
		b.Run(dec.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(g, y, 9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalDecode measures the per-batch cost of the
// incremental MN decoder (the L-unit early-stopping pipeline).
func BenchmarkIncrementalDecode(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(2000, 300, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(2000, 9, rng.NewRandSeeded(2))
	y := query.Execute(g, sigma, query.Options{Seed: 3}).Y
	qs := make([]int, len(y))
	for j := range qs {
		qs[j] = j
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc := mn.NewIncremental(g)
		for start := 0; start < len(y); start += 50 {
			end := start + 50
			if end > len(y) {
				end = len(y)
			}
			inc.AddBatch(qs[start:end], y[start:end])
		}
		inc.Estimate(9)
	}
}

// BenchmarkThresholdClassifier measures the Corollary 6 threshold form of
// the MN rule.
func BenchmarkThresholdClassifier(b *testing.B) {
	g, err := pooling.RandomRegular{}.Build(5000, 800, pooling.BuildOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sigma := bitvec.Random(5000, 12, rng.NewRandSeeded(2))
	y := query.Execute(g, sigma, query.Options{Seed: 3}).Y
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mn.ReconstructThreshold(g, y, 12, mn.Options{})
	}
}

// BenchmarkAdaptiveReconstruct measures the sequential bisection decoder.
func BenchmarkAdaptiveReconstruct(b *testing.B) {
	sigma := bitvec.Random(100000, 32, rng.NewRandSeeded(5))
	oracle := func(indices []int) int64 {
		var c int64
		for _, i := range indices {
			if sigma.Get(i) {
				c++
			}
		}
		return c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReconstructAdaptive(100000, oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignCSVRoundTrip measures lab-protocol serialization.
func BenchmarkDesignCSVRoundTrip(b *testing.B) {
	scheme, err := New(2000, 200, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := scheme.WriteDesignCSV(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := LoadDesignCSV(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures the public API round trip at quickstart
// scale.
func BenchmarkEndToEnd(b *testing.B) {
	signal := make([]bool, 5000)
	r := rng.NewRandSeeded(7)
	for _, i := range r.SampleK(5000, 12) {
		signal[i] = true
	}
	m := RecommendedQueries(5000, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scheme, err := New(5000, m, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		y := scheme.Measure(signal)
		if _, err := scheme.Reconstruct(y, 12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOneDesignManySignals is the engine's reason to exist: B
// signals measured and decoded against one n = 10^4 design. The naive
// path is what callers did before the engine — B independent
// pooled.New + Measure + Reconstruct round trips, rebuilding the Γ = n/2
// design every time. The engine path builds the scheme once (cache), runs
// one batched measurement pass, and pipelines the B decodes through the
// worker pool.
func BenchmarkOneDesignManySignals(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		m     = 600
		batch = 32
	)
	signals := make([][]bool, batch)
	r := rng.NewRandSeeded(99)
	for s := range signals {
		sig := make([]bool, n)
		for _, i := range r.SampleK(n, k) {
			sig[i] = true
		}
		signals[s] = sig
	}

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < batch; s++ {
				scheme, err := New(n, m, Options{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				y := scheme.Measure(signals[s])
				if _, err := scheme.Reconstruct(y, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		eng := NewEngine(EngineOptions{})
		defer eng.Close()
		for i := 0; i < b.N; i++ {
			scheme, err := eng.Scheme(n, m, Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			ys := eng.MeasureBatch(scheme, signals)
			results, err := eng.DecodeBatch(context.Background(), scheme, ys, k, MN)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != batch {
				b.Fatalf("got %d results", len(results))
			}
		}
	})
}

// BenchmarkNoisyBatchDecode measures the per-signal noise-stream path of
// the noise subsystem against the exact batched path at the engine's
// home scale (one n = 10^4 design, B = 32 signals): the same
// per-signal scatter, plus a seeded per-(signal, query) stream and
// the noise policy's robust decoder. The acceptance bar is the gaussian
// path within 1.5× of the exact path. The σ-sweep sub-benchmark (the
// slow part — it decodes the batch once per σ) is skipped in -short
// mode.
func BenchmarkNoisyBatchDecode(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		m     = 600
		batch = 32
	)
	signals := make([][]bool, batch)
	r := rng.NewRandSeeded(99)
	for s := range signals {
		sig := make([]bool, n)
		for _, i := range r.SampleK(n, k) {
			sig[i] = true
		}
		signals[s] = sig
	}
	eng := NewEngine(EngineOptions{})
	defer eng.Close()
	scheme, err := eng.Scheme(n, m, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}

	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ys := eng.MeasureBatch(scheme, signals)
			results, err := eng.DecodeBatch(context.Background(), scheme, ys, k, MN)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != batch {
				b.Fatalf("got %d results", len(results))
			}
		}
	})
	b.Run("gaussian", func(b *testing.B) {
		nm := NoiseModel{Kind: "gaussian", Sigma: 0.5, Seed: 7}
		consistent := 0
		for i := 0; i < b.N; i++ {
			ys, err := eng.MeasureBatchNoisy(scheme, signals, nm)
			if err != nil {
				b.Fatal(err)
			}
			results, err := eng.DecodeBatchNoisy(context.Background(), scheme, ys, k, nm)
			if err != nil {
				b.Fatal(err)
			}
			consistent = 0
			for _, res := range results {
				if res.Consistent {
					consistent++
				}
			}
		}
		b.ReportMetric(float64(consistent), "consistent_of_32")
	})
	b.Run("sigma-sweep", func(b *testing.B) {
		skipSweepIfShort(b)
		for _, sigma := range []float64{0.25, 1, 4} {
			nm := NoiseModel{Kind: "gaussian", Sigma: sigma, Seed: 7}
			for i := 0; i < b.N; i++ {
				ys, err := eng.MeasureBatchNoisy(scheme, signals, nm)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := eng.DecodeBatchNoisy(context.Background(), scheme, ys, k, nm); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkMetricsOverhead measures what the observability layer costs
// on the hot decode path: the same noisy batched decode as
// BenchmarkNoisyBatchDecode/gaussian, once against a nil registry (the
// no-op sink every instrument accepts) and once with a live registry
// collecting the full engine surface. The acceptance bar is the
// instrumented run within 2% of the no-op run — the registry records on
// scrape-time collectors and lock-free atomics, so the pipeline should
// not notice it.
func BenchmarkMetricsOverhead(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		m     = 600
		batch = 32
	)
	signals := make([][]bool, batch)
	r := rng.NewRandSeeded(99)
	for s := range signals {
		sig := make([]bool, n)
		for _, i := range r.SampleK(n, k) {
			sig[i] = true
		}
		signals[s] = sig
	}
	nm := NoiseModel{Kind: "gaussian", Sigma: 0.5, Seed: 7}
	run := func(b *testing.B, reg *metrics.Registry) {
		eng := NewEngine(EngineOptions{MetricsRegistry: reg})
		defer eng.Close()
		scheme, err := eng.Scheme(n, m, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ys, err := eng.MeasureBatchNoisy(scheme, signals, nm)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.DecodeBatchNoisy(context.Background(), scheme, ys, k, nm); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("noop-sink", func(b *testing.B) { run(b, nil) })
	b.Run("registry", func(b *testing.B) {
		reg := metrics.NewRegistry()
		run(b, reg)
		if fams := reg.Gather(); len(fams) == 0 {
			b.Fatal("registry collected nothing — the benchmark measured an unwired engine")
		}
	})
}

// BenchmarkTraceOverhead measures what span-level job tracing costs on
// the hot decode path: the same noisy batched decode as
// BenchmarkNoisyBatchDecode/gaussian, once with tracing disabled (a nil
// store — every span call is a single pointer test) and once with the
// tail sampler retaining everything (SampleRate 1, the worst case: a
// builder, three spans, and a store offer per job). The acceptance bar
// is the disabled run within 2% of an untraced engine — which it is by
// construction, since disabled tracing takes the same nil-builder path —
// and full retention staying within a few percent, because spans are
// appended under one short per-job mutex that the decode itself dwarfs.
func BenchmarkTraceOverhead(b *testing.B) {
	const (
		n     = 10000
		k     = 16
		m     = 600
		batch = 32
	)
	signals := make([][]bool, batch)
	r := rng.NewRandSeeded(99)
	for s := range signals {
		sig := make([]bool, n)
		for _, i := range r.SampleK(n, k) {
			sig[i] = true
		}
		signals[s] = sig
	}
	nm := NoiseModel{Kind: "gaussian", Sigma: 0.5, Seed: 7}
	run := func(b *testing.B, opts EngineOptions, check func(*Engine)) {
		eng := NewEngine(opts)
		defer eng.Close()
		scheme, err := eng.Scheme(n, m, Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ys, err := eng.MeasureBatchNoisy(scheme, signals, nm)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.DecodeBatchNoisy(context.Background(), scheme, ys, k, nm); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if check != nil {
			check(eng)
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, EngineOptions{}, nil) })
	b.Run("sample-1.0", func(b *testing.B) {
		run(b, EngineOptions{TraceSample: 1, TraceStore: 256}, func(eng *Engine) {
			if len(eng.RecentTraces(1)) == 0 {
				b.Fatal("trace store collected nothing — the benchmark measured an untraced engine")
			}
		})
	})
}
