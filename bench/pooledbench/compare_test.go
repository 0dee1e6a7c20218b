package main

import "testing"

// pairsOf builds alternating pairs from parallel base/new values.
func pairsOf(base, next []float64) []pair {
	out := make([]pair, len(base))
	for i := range base {
		out[i] = pair{base: base[i], new: next[i], baseFirst: i%2 == 0}
	}
	return out
}

func around(center, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = center + step*float64(i%5-2)
	}
	return out
}

func TestJudgePairingRules(t *testing.T) {
	steady := around(100, 0.5, 10) // spread about 1%
	for _, tc := range []struct {
		name   string
		pairs  []pair
		higher bool
		bound  float64
		want   string
	}{
		{"clear gain on a lower-is-better metric", pairsOf(steady, around(80, 0.5, 10)), false, 0.1, "gain"},
		{"clear gain on a higher-is-better metric", pairsOf(steady, around(120, 0.5, 10)), true, 0.1, "gain"},
		{"regression beyond the bound", pairsOf(steady, around(115, 0.5, 10)), false, 0.1, "regression"},
		{"worse but within the bound", pairsOf(steady, around(105, 0.5, 10)), false, 0.1, "no change"},
		{"better within the parent's spread", pairsOf(steady, around(99.5, 0.5, 10)), false, 0.1, "no change"},
		{"nine pairs decide nothing", pairsOf(steady[:9], around(80, 0.5, 9)), false, 0.1, "insufficient"},
		{"pairs must alternate", func() []pair {
			p := pairsOf(steady, around(80, 0.5, 10))
			for i := range p {
				p[i].baseFirst = true
			}
			return p
		}(), false, 0.1, "insufficient"},
		{"spread wider than the bound", pairsOf(around(100, 10, 10), around(95, 10, 10)), false, 0.1, "unresolved"},
		{"wide spread but every run of the change better", pairsOf(around(100, 10, 10), around(40, 10, 10)), false, 0.1, "gain"},
		{"eight of ten wins is not a gain", func() []pair {
			next := around(80, 0.5, 10)
			next[0], next[1] = 130, 130
			return pairsOf(steady, next)
		}(), false, 0.5, "no change"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := judge(tc.pairs, tc.higher, tc.bound); got.call != tc.want {
				t.Errorf("verdict %q (median %g → %g, IQR %g, wins %d/%d), want %q",
					got.call, got.baseMedian, got.newMedian, got.baseIQR, got.wins, got.pairs, tc.want)
			}
		})
	}
}
