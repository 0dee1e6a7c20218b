// Package metrics is a zero-dependency metrics registry with a
// Prometheus text-exposition writer — the observability substrate of the
// pooled-data service. It exists because the service must be scrapable
// by standard tooling without importing a client library: the engine,
// campaign store, and remote shard transport all record into (or export
// through) a Registry, and pooledd serves the whole surface on
// GET /metrics in the Prometheus text format.
//
// Two recording styles coexist:
//
//   - Direct instruments: Counter/Gauge/Histogram families created once
//     and updated on hot paths (the remote transport's per-stage request
//     timers). Updates are lock-free atomics.
//   - Collectors: callbacks registered with OnGather that export an
//     existing stats snapshot at scrape time (engine counters, campaign
//     gauges). Nothing is double-accounted: the snapshot is the source
//     of truth and the exporter is just a renderer.
//
// Label sets are bounded everywhere, mirroring the engine's bounded-key
// histogram pattern: a family holds at most MaxSeries distinct label
// tuples, and observations beyond the bound collapse into a tuple whose
// every value is OverflowLabel. Caller-controlled label values (tenant
// names, noise-model keys) therefore cannot grow a scrape without
// limit.
//
// A nil *Registry is valid and records nothing: every constructor and
// instrument method is nil-safe, so instrumented code needs no "is
// metrics enabled" branches.
package metrics

import (
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSeries bounds distinct label tuples per family; past it,
// observations collapse into the overflow tuple.
const DefaultMaxSeries = 64

// OverflowLabel is the label value of the overflow tuple.
const OverflowLabel = "other"

// DurationBuckets are the default histogram bucket upper bounds in
// seconds — the same 1-2.5-5 ladder from 100µs to 10s as the engine's
// bounded-bucket latency histograms, so scraped histograms and
// /v1/stats histograms line up bucket for bucket.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// Family types.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Registry holds metric families and scrape-time collectors. Safe for
// concurrent use. The zero value is NOT ready; use NewRegistry. A nil
// *Registry is a valid no-op sink.
type Registry struct {
	mu         sync.Mutex
	vecs       map[string]*vec
	collectors []func(*Exporter)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{vecs: make(map[string]*vec)}
}

// vec is one metric family of direct instruments.
type vec struct {
	name, help, typ string
	labels          []string
	upper           []float64 // histogram bucket upper bounds (seconds)

	mu     sync.RWMutex
	series map[string]*series
	order  []string
}

// series is one label tuple's storage. Counter/gauge values live in
// valBits (float64 bits); histograms use counts/sumBits. A histogram's
// count is the sum of its bucket snapshot, never a separate counter, so
// a scrape racing an observation still sees +Inf equal to _count.
type series struct {
	values  []string
	valBits atomic.Uint64
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func (s *series) add(v float64) {
	for {
		old := s.valBits.Load()
		nv := math.Float64frombits(old) + v
		if s.valBits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

func (s *series) set(v float64) { s.valBits.Store(math.Float64bits(v)) }

func (s *series) observe(v float64, upper []float64) {
	b := len(upper)
	for i, ub := range upper {
		if v <= ub {
			b = i
			break
		}
	}
	s.counts[b].Add(1)
	for {
		old := s.sumBits.Load()
		nv := math.Float64frombits(old) + v
		if s.sumBits.CompareAndSwap(old, math.Float64bits(nv)) {
			return
		}
	}
}

// seriesKey joins label values unambiguously.
func seriesKey(values []string) string { return strings.Join(values, "\x00") }

// with returns (creating if needed) the series for the label values,
// collapsing into the overflow tuple past MaxSeries.
func (v *vec) with(values []string) *series {
	if len(values) != len(v.labels) {
		panic("metrics: " + v.name + ": label value count mismatch")
	}
	key := seriesKey(values)
	v.mu.RLock()
	s := v.series[key]
	v.mu.RUnlock()
	if s != nil {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s = v.series[key]; s != nil {
		return s
	}
	if len(v.series) >= DefaultMaxSeries {
		ov := make([]string, len(v.labels))
		for i := range ov {
			ov[i] = OverflowLabel
		}
		key = seriesKey(ov)
		if s = v.series[key]; s != nil {
			return s
		}
		values = ov
	}
	s = &series{values: append([]string(nil), values...)}
	if v.typ == TypeHistogram {
		s.counts = make([]atomic.Uint64, len(v.upper)+1)
	}
	v.series[key] = s
	v.order = append(v.order, key)
	return s
}

// family looks up or creates a direct-instrument family. A name reused
// with a different shape returns the existing family unchanged (the
// first registration wins), so instrumented packages sharing a registry
// compose without coordination.
func (r *Registry) family(name, help, typ string, upper []float64, labels []string) *vec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.vecs[name]; ok {
		return v
	}
	v := &vec{
		name: name, help: help, typ: typ,
		labels: append([]string(nil), labels...),
		upper:  append([]float64(nil), upper...),
		series: make(map[string]*series),
	}
	r.vecs[name] = v
	return v
}

// CounterVec is a counter family; With selects a label tuple.
type CounterVec struct{ v *vec }

// Counter is one monotone series.
type Counter struct{ s *series }

// GaugeVec is a gauge family.
type GaugeVec struct{ v *vec }

// Gauge is one settable series.
type Gauge struct{ s *series }

// HistogramVec is a histogram family.
type HistogramVec struct{ v *vec }

// Histogram is one observation series.
type Histogram struct {
	s     *series
	upper []float64
}

// Counter registers (or returns) a counter family. Nil-safe.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{v: r.family(name, help, TypeCounter, nil, labels)}
}

// Gauge registers (or returns) a gauge family. Nil-safe.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{v: r.family(name, help, TypeGauge, nil, labels)}
}

// Histogram registers (or returns) a histogram family with the given
// bucket upper bounds (nil means DurationBuckets). Nil-safe.
func (r *Registry) Histogram(name, help string, upper []float64, labels ...string) *HistogramVec {
	if upper == nil {
		upper = DurationBuckets
	}
	return &HistogramVec{v: r.family(name, help, TypeHistogram, upper, labels)}
}

// With selects the counter for the label values.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil || cv.v == nil {
		return &Counter{}
	}
	return &Counter{s: cv.v.with(values)}
}

// Add increments the counter by v (negative deltas are dropped —
// counters are monotone).
func (c *Counter) Add(v float64) {
	if c == nil || c.s == nil || v < 0 {
		return
	}
	c.s.add(v)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// With selects the gauge for the label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil || gv.v == nil {
		return &Gauge{}
	}
	return &Gauge{s: gv.v.with(values)}
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.set(v)
}

// Add moves the gauge by v (either sign).
func (g *Gauge) Add(v float64) {
	if g == nil || g.s == nil {
		return
	}
	g.s.add(v)
}

// With selects the histogram for the label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil || hv.v == nil {
		return &Histogram{}
	}
	return &Histogram{s: hv.v.with(values), upper: hv.v.upper}
}

// Observe records one observation (seconds, for duration histograms).
func (h *Histogram) Observe(v float64) {
	if h == nil || h.s == nil {
		return
	}
	h.s.observe(v, h.upper)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// OnGather registers a scrape-time collector: fn runs on every Gather
// and exports snapshot-derived samples through the Exporter. Nil-safe.
func (r *Registry) OnGather(fn func(*Exporter)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Sample is one label tuple's scraped value. Counter and gauge samples
// carry Value; histogram samples carry per-bucket (non-cumulative)
// Buckets — len(Upper)+1, trailing overflow — plus Sum and Count.
type Sample struct {
	Values  []string
	Value   float64
	Buckets []uint64
	Sum     float64
	Count   uint64
}

// Family is one scraped metric family.
type Family struct {
	Name, Help, Type string
	Labels           []string
	Upper            []float64
	Samples          []Sample
}

// Gather snapshots every family: direct instruments first, then the
// collectors. Output is deterministic — families sorted by name,
// samples by label values. Nil-safe (returns nil).
func (r *Registry) Gather() []Family {
	if r == nil {
		return nil
	}
	e := &Exporter{byName: make(map[string]*Family)}
	r.mu.Lock()
	vecs := make([]*vec, 0, len(r.vecs))
	for _, v := range r.vecs {
		vecs = append(vecs, v)
	}
	collectors := append([]func(*Exporter){}, r.collectors...)
	r.mu.Unlock()

	for _, v := range vecs {
		v.mu.RLock()
		for _, key := range v.order {
			s := v.series[key]
			switch v.typ {
			case TypeHistogram:
				buckets := make([]uint64, len(s.counts))
				var count uint64
				for i := range s.counts {
					buckets[i] = s.counts[i].Load()
					count += buckets[i]
				}
				e.Histogram(v.name, v.help, v.upper, buckets,
					math.Float64frombits(s.sumBits.Load()), count,
					pairs(v.labels, s.values)...)
			default:
				e.emit(v.name, v.help, v.typ, Sample{
					Values: s.values, Value: math.Float64frombits(s.valBits.Load()),
				}, v.labels)
			}
		}
		v.mu.RUnlock()
	}
	for _, fn := range collectors {
		fn(e)
	}
	return e.families()
}

// pairs interleaves label names and values for the Exporter call form.
func pairs(labels, values []string) []string {
	out := make([]string, 0, 2*len(labels))
	for i, l := range labels {
		out = append(out, l, values[i])
	}
	return out
}

// Exporter receives samples during a Gather. Collector callbacks emit
// through it; label name/value pairs alternate in lv (name, value,
// name, value, ...). The first sample of a family fixes its label
// names; families are bounded at DefaultMaxSeries tuples with overflow
// aggregation, same as direct instruments.
type Exporter struct {
	byName map[string]*Family
	order  []string
}

// Counter exports one counter sample.
func (e *Exporter) Counter(name, help string, v float64, lv ...string) {
	labels, values := splitPairs(lv)
	e.emit(name, help, TypeCounter, Sample{Values: values, Value: v}, labels)
}

// Gauge exports one gauge sample.
func (e *Exporter) Gauge(name, help string, v float64, lv ...string) {
	labels, values := splitPairs(lv)
	e.emit(name, help, TypeGauge, Sample{Values: values, Value: v}, labels)
}

// Histogram exports one histogram sample from a snapshot: upper are the
// bucket bounds in seconds, buckets the per-bucket counts
// (len(upper)+1, trailing overflow), sum the observation total in
// seconds.
func (e *Exporter) Histogram(name, help string, upper []float64, buckets []uint64, sum float64, count uint64, lv ...string) {
	labels, values := splitPairs(lv)
	fam := e.familyFor(name, help, TypeHistogram, labels)
	if fam.Upper == nil {
		fam.Upper = append([]float64(nil), upper...)
	}
	e.add(fam, Sample{Values: values, Buckets: append([]uint64(nil), buckets...), Sum: sum, Count: count})
}

func splitPairs(lv []string) (labels, values []string) {
	if len(lv)%2 != 0 {
		panic("metrics: odd label name/value list")
	}
	for i := 0; i < len(lv); i += 2 {
		labels = append(labels, lv[i])
		values = append(values, lv[i+1])
	}
	return labels, values
}

func (e *Exporter) familyFor(name, help, typ string, labels []string) *Family {
	fam, ok := e.byName[name]
	if !ok {
		fam = &Family{Name: name, Help: help, Type: typ, Labels: append([]string(nil), labels...)}
		e.byName[name] = fam
		e.order = append(e.order, name)
	}
	return fam
}

func (e *Exporter) emit(name, help, typ string, s Sample, labels []string) {
	e.add(e.familyFor(name, help, typ, labels), s)
}

// add appends a sample with the bounded-tuple overflow rule: past
// DefaultMaxSeries distinct tuples, samples aggregate into the
// all-OverflowLabel tuple (values and bucket counts sum).
func (e *Exporter) add(fam *Family, s Sample) {
	if len(fam.Samples) >= DefaultMaxSeries {
		ov := make([]string, len(fam.Labels))
		for i := range ov {
			ov[i] = OverflowLabel
		}
		key := seriesKey(ov)
		for i := range fam.Samples {
			if seriesKey(fam.Samples[i].Values) == key {
				fam.Samples[i].Value += s.Value
				fam.Samples[i].Sum += s.Sum
				fam.Samples[i].Count += s.Count
				for b := range s.Buckets {
					if b < len(fam.Samples[i].Buckets) {
						fam.Samples[i].Buckets[b] += s.Buckets[b]
					}
				}
				return
			}
		}
		s.Values = ov
		if s.Buckets != nil {
			s.Buckets = append([]uint64(nil), s.Buckets...)
		}
	}
	fam.Samples = append(fam.Samples, s)
}

func (e *Exporter) families() []Family {
	out := make([]Family, 0, len(e.order))
	names := append([]string(nil), e.order...)
	sort.Strings(names)
	for _, name := range names {
		fam := e.byName[name]
		sort.SliceStable(fam.Samples, func(i, j int) bool {
			return seriesKey(fam.Samples[i].Values) < seriesKey(fam.Samples[j].Values)
		})
		out = append(out, *fam)
	}
	return out
}

// Handler serves the registry in the Prometheus text exposition format.
// Nil-safe (serves an empty exposition).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WriteText(w, r.Gather())
	})
}
