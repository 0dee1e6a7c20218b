package main

import (
	"encoding/json"
	"path/filepath"
	"regexp"
	"testing"
)

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json declares exactly the metrics the benchmark emits, with
// the same units, and exactly its workloads.
func TestBenchmarkJSONMatchesEmittedMetrics(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	declared := func(names, units []string) map[string]string {
		out := make(map[string]string)
		for i, n := range names {
			if !validName.MatchString(n) {
				t.Errorf("metric name %q does not fit [A-Za-z0-9_.-]", n)
			}
			if _, dup := out[n]; dup {
				t.Errorf("metric %q declared twice", n)
			}
			out[n] = units[i]
		}
		return out
	}
	var e2eNames, e2eUnits, layerNames, layerUnits []string
	for _, m := range spec.EndToEnd {
		e2eNames, e2eUnits = append(e2eNames, m.Name), append(e2eUnits, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layerNames, layerUnits = append(layerNames, m.Name), append(layerUnits, m.Unit)
	}
	for _, tc := range []struct {
		kind     string
		declared map[string]string
		emitted  []metricDef
		traced   bool
	}{
		{"end_to_end", declared(e2eNames, e2eUnits), endToEnd, false},
		{"per_layer", declared(layerNames, layerUnits), perLayer, true},
	} {
		res := &result{Workload: "w", Correct: true, Metrics: make(map[string]metric)}
		for _, d := range tc.emitted {
			res.Metrics[d.name] = metric{Value: 1, Unit: d.unit}
		}
		line, _ := summaryLine([]*result{res}, tc.traced)
		var out struct {
			Metrics map[string]struct {
				Unit string `json:"unit"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatal(err)
		}
		for name, m := range out.Metrics {
			unit, ok := tc.declared[name]
			if !ok {
				t.Errorf("%s: emitted %q is not declared", tc.kind, name)
			} else if unit != m.Unit {
				t.Errorf("%s: %q emitted in %q, declared in %q", tc.kind, name, m.Unit, unit)
			}
		}
		for name := range tc.declared {
			if _, ok := out.Metrics[name]; !ok {
				t.Errorf("%s: declared %q is not emitted", tc.kind, name)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := spec.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d declared as %q (%q), defined as %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
}
