package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		max    float64
		p      float64
		beyond int
	}{
		{n: 10000, max: 99.9, p: 99.9, beyond: 10},
		{n: 9999, max: 99.9, p: 99, beyond: 99},
		{n: 10010, max: 99, p: 99, beyond: 100},
		{n: 1000, max: 99, p: 99, beyond: 10},
		{n: 999, max: 99, p: 90, beyond: 99},
		{n: 100, max: 99, p: 90, beyond: 10},
		{n: 99, max: 99, p: 50, beyond: 49},
		{n: 5, max: 99, p: 50, beyond: 2},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		p, v, beyond := tail(sorted, tc.max)
		if p != tc.p || beyond != tc.beyond {
			t.Errorf("n=%d max=%g: got p%g with %d beyond, want p%g with %d", tc.n, tc.max, p, beyond, tc.p, tc.beyond)
		}
		// Nearest rank: the value has exactly `beyond` samples above it.
		if above := tc.n - int(v); above != beyond {
			t.Errorf("n=%d: value %g has %d samples above, reported %d", tc.n, v, above, beyond)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Values from Python: statistics.quantiles(values, n=4).
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.2, 5.9, 4.4, 1.0}, [3]float64{1.6, 3.1, 5.15}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", tc.in, i, got, tc.want[i])
			}
		}
	}
}

func TestPoissonScheduleIsFixedBySeed(t *testing.T) {
	const rate, d = 250.0, 4 * time.Second
	a, b := poisson(7, rate, d), poisson(7, rate, d)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if slices.Equal(a, poisson(8, rate, d)) {
		t.Fatal("two seeds gave one schedule")
	}
	if !slices.IsSorted(a) || a[len(a)-1] >= d {
		t.Fatal("schedule not ascending within its duration")
	}
	// 1000 expected arrivals: within five standard deviations.
	if n := float64(len(a)); math.Abs(n-rate*d.Seconds()) > 5*math.Sqrt(rate*d.Seconds()) {
		t.Fatalf("%d arrivals, want about %g", len(a), rate*d.Seconds())
	}
}

func TestJobInputsAreFixedBySeed(t *testing.T) {
	w, err := workloadByName("sync-gaussian")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := newJobGen(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := newJobGen(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	idx := jobIndex(phaseOpen, 12, 0)
	s := g1.signal(idx)
	if len(s) != benchK || !slices.Equal(s, g2.signal(idx)) {
		t.Fatalf("signal %v not reproduced", s)
	}
	if !slices.Equal(g1.counts(0, idx, s), g2.counts(0, idx, s)) {
		t.Fatal("noisy counts not reproduced")
	}
	if slices.Equal(s, g1.signal(idx+1)) {
		t.Fatal("two jobs share a signal")
	}
}

func TestPromSums(t *testing.T) {
	text := `# HELP pooled_x_total Things.
# TYPE pooled_x_total counter
pooled_x_total{status="200"} 7
pooled_x_total{status="429"} 2
pooled_h_seconds_bucket{le="+Inf"} 4
pooled_h_seconds_sum 0.5
pooled_h_seconds_count 4
pooled_g 1.5e+06
`
	m, err := promSums(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"pooled_x_total": 9, "pooled_h_seconds_sum": 0.5, "pooled_h_seconds_count": 4, "pooled_g": 1.5e6,
	} {
		if m[name] != want {
			t.Errorf("%s = %g, want %g", name, m[name], want)
		}
	}
}
