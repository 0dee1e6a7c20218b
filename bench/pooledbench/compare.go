package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// minPairs is how many parent/change pairs a verdict needs.
const minPairs = 10

// pair is one metric's value on the parent (base) and the change (new)
// for one seed; baseFirst says which side ran first.
type pair struct {
	base, new float64
	baseFirst bool
}

// verdict is one row of the comparison.
type verdict struct {
	baseMedian, baseIQR float64
	newMedian           float64
	delta               float64 // relative change of the median, signed
	wins, pairs         int     // pairs the change won; ties count for neither
	call                string
}

// judge applies the pairing rules to one metric on one workload:
//   - fewer than minPairs pairs, or pairs whose order does not alternate
//     between parent-first and change-first, decide nothing;
//   - a spread (interquartile range over median) wider than the bound
//     on either side leaves the metric unresolved, unless every run of
//     the change reads better than every run of the parent;
//   - a median worse than the parent's by more than the bound is a
//     regression;
//   - a gain needs at least nine tenths of the pairs won and a median
//     difference larger than the parent's interquartile range.
func judge(pairs []pair, higherBetter bool, bound float64) verdict {
	v := verdict{pairs: len(pairs)}
	if len(pairs) < 2 {
		v.call = "insufficient"
		return v
	}
	base := make([]float64, len(pairs))
	next := make([]float64, len(pairs))
	baseFirst := 0
	for i, p := range pairs {
		base[i], next[i] = p.base, p.new
		if p.baseFirst {
			baseFirst++
		}
	}
	sign := -1.0 // lower is better
	if higherBetter {
		sign = 1
	}
	bq1, bmed, bq3 := quartiles(base)
	nq1, nmed, nq3 := quartiles(next)
	v.baseMedian, v.baseIQR, v.newMedian = bmed, bq3-bq1, nmed
	if bmed != 0 {
		v.delta = (nmed - bmed) / math.Abs(bmed)
	}
	for _, p := range pairs {
		if d := sign * (p.new - p.base); d > 0 {
			v.wins++
		}
	}
	better := sign * v.delta // positive when the change is better
	allBetter := true
	for _, b := range base {
		for _, n := range next {
			if sign*(n-b) <= 0 {
				allBetter = false
			}
		}
	}
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	switch {
	case len(pairs) < minPairs || abs(2*baseFirst-len(pairs)) > 1:
		v.call = "insufficient"
	case (spread(bq1, bmed, bq3) > bound || spread(nq1, nmed, nq3) > bound) && !allBetter:
		v.call = "unresolved"
	case -better > bound:
		v.call = "regression"
	case better > 0 && 10*v.wins >= 9*len(pairs) && math.Abs(nmed-bmed) > v.baseIQR:
		v.call = "gain"
	default:
		v.call = "no change"
	}
	return v
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// compareFiles prints one row per workload and end-to-end or timing
// metric, pairing the runs of both files by workload and seed. It
// returns 1 when a gated metric regressed.
func compareFiles(w io.Writer, specPath, basePath, newPath string) int {
	spec, err := readSpec(specPath)
	if err == nil {
		var base, next *runsFile
		if base, err = readRuns(basePath); err == nil {
			if next, err = readRuns(newPath); err == nil {
				return compareRuns(w, spec, base, next)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "pooledbench:", err)
	return 1
}

func compareRuns(w io.Writer, spec *benchSpec, base, next *runsFile) int {
	type key struct {
		workload string
		seed     uint64
	}
	index := func(rf *runsFile) map[key]*result {
		out := make(map[key]*result)
		for _, r := range rf.Runs {
			if !r.Trace {
				out[key{r.Workload, r.Seed}] = r
			}
		}
		return out
	}
	bi, ni := index(base), index(next)
	var keys []key
	for k := range bi {
		if _, ok := ni[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	// The gated metrics come from BENCHMARK.json; the timing metrics are
	// judged the same way but cannot fail the comparison.
	type rule struct {
		name, unit   string
		higherBetter bool
		bound        float64
		gated        bool
	}
	var rules []rule
	for _, m := range spec.EndToEnd {
		rules = append(rules, rule{m.Name, m.Unit, m.Better == "higher", m.Bound, true})
	}
	for _, t := range timing {
		rules = append(rules, rule{t.name, t.unit, t.higherBetter, timingBound, false})
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase IQR\tnew median\tdelta\twins/pairs\tbound\tverdict")
	status := 0
	for _, wl := range spec.Workloads {
		for _, m := range rules {
			var pairs []pair
			for _, k := range keys {
				if k.workload != wl.Name {
					continue
				}
				b, n := bi[k], ni[k]
				pairs = append(pairs, pair{b.Metrics[m.name].Value, n.Metrics[m.name].Value, b.Start.Before(n.Start)})
			}
			v := judge(pairs, m.higherBetter, m.bound)
			call := v.call
			switch {
			case !m.gated:
				call += " (not gated)"
			case call == "regression":
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g\t%.4g %s\t%+.1f%%\t%d/%d\t%g\t%s\n",
				wl.Name, m.name, v.baseMedian, m.unit, v.baseIQR, v.newMedian, m.unit,
				100*v.delta, v.wins, v.pairs, m.bound, call)
		}
	}
	tw.Flush()
	return status
}
