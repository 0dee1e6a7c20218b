package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of sorted by the
// nearest-rank rule. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples,
// ⌈p·n/100⌉ computed in integer per-mille so 99.9 of 10000 is exactly 9990.
func rank(n int, p float64) int {
	pm := int(math.Round(p * 10))
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentiles are the candidates tail reports, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tail reports the highest percentile of sorted, no higher than max,
// that has at least ten samples beyond it, with its value and the count
// of samples beyond it. A sample too small for any candidate reports the
// median.
func tail(sorted []float64, max float64) (p, v float64, beyond int) {
	n := len(sorted)
	for _, c := range tailPercentiles {
		if c > max {
			continue
		}
		if b := n - rank(n, c); b >= 10 {
			return c, percentile(sorted, c), b
		}
	}
	if n == 0 {
		return 50, 0, 0
	}
	return 50, percentile(sorted, 50), n - rank(n, 50)
}

// quartiles returns the three cut points of values the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so spreads printed here match a check made with Python.
// values needs at least two elements.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// median of unsorted values; 0 for none.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// samples is a set of measurements in one unit, kept whole so any
// percentile can be taken at the end.
type samples []float64

func (s samples) sorted() []float64 {
	d := append([]float64(nil), s...)
	sort.Float64s(d)
	return d
}

func (s samples) p(p float64) float64 { return percentile(s.sorted(), p) }

// promSums parses Prometheus text exposition and sums every sample of a
// metric name over its label sets; histogram series appear under their
// _count and _sum names.
func promSums(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		out[name] += v
	}
	return out, sc.Err()
}
