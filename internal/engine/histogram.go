package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// latencyBounds are the upper edges of the decode-latency buckets, in
// roughly 1-2.5-5 steps from 100µs to 10s. A fixed array keeps each
// histogram a handful of cache lines and makes snapshots mergeable
// across shards (every histogram shares the same edges); one implicit
// overflow bucket catches everything beyond the last edge.
var latencyBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// histogram is a bounded-bucket latency histogram. Observations are
// lock-free; snapshots may tear between buckets, which is fine for
// monitoring counters. There is no separate observation counter: a
// snapshot's Count is the sum of the buckets it read, so it agrees with
// them (+Inf == count in the exposition) even mid-observation.
type histogram struct {
	counts  [len(latencyBounds) + 1]atomic.Uint64
	totalNS atomic.Int64
}

func (h *histogram) observe(d time.Duration) {
	b := len(latencyBounds) // overflow bucket
	for i, ub := range latencyBounds {
		if d <= ub {
			b = i
			break
		}
	}
	h.counts[b].Add(1)
	h.totalNS.Add(int64(d))
}

// LatencyHistogram is the wire snapshot of a histogram: bucket upper
// edges in nanoseconds plus one trailing overflow bucket, so
// len(Counts) == len(BucketUpperNS)+1.
type LatencyHistogram struct {
	Count         uint64   `json:"count"`
	TotalNS       int64    `json:"total_ns"`
	BucketUpperNS []int64  `json:"bucket_upper_ns"`
	Counts        []uint64 `json:"counts"`
}

func (h *histogram) snapshot() LatencyHistogram {
	s := LatencyHistogram{
		TotalNS:       h.totalNS.Load(),
		BucketUpperNS: make([]int64, len(latencyBounds)),
		Counts:        make([]uint64, len(h.counts)),
	}
	for i, ub := range latencyBounds {
		s.BucketUpperNS[i] = int64(ub)
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// merge adds src into dst (same bucket edges by construction).
func (dst *LatencyHistogram) merge(src LatencyHistogram) {
	if dst.BucketUpperNS == nil {
		dst.BucketUpperNS = append([]int64(nil), src.BucketUpperNS...)
		dst.Counts = make([]uint64, len(src.Counts))
	}
	dst.Count += src.Count
	dst.TotalNS += src.TotalNS
	for i := range src.Counts {
		dst.Counts[i] += src.Counts[i]
	}
}

// histogramSet keys histograms by name (decoder names, noise-model
// keys). The read path (one map lookup per completed job) dominates, so
// it uses an RWMutex with a write lock only on the first job of each
// key. limit bounds the number of distinct keys when the key space is
// caller-controlled (noise-model keys embed user-supplied parameters, so
// a sigma sweep must not grow the map — and every /v1/stats payload —
// without bound); past the limit, new keys collapse into overflowKey.
// 0 means unlimited (the decoder-name set is fixed and small).
type histogramSet struct {
	mu    sync.RWMutex
	m     map[string]*histogram
	limit int
}

// overflowKey buckets observations whose key would exceed the set's
// limit.
const overflowKey = "other"

func (s *histogramSet) get(name string) *histogram {
	s.mu.RLock()
	h := s.m[name]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]*histogram)
	}
	if h = s.m[name]; h != nil {
		return h
	}
	if s.limit > 0 && len(s.m) >= s.limit {
		if h = s.m[overflowKey]; h == nil {
			h = &histogram{}
			s.m[overflowKey] = h
		}
		return h
	}
	h = &histogram{}
	s.m[name] = h
	return h
}

// LatencySet is the exported form of histogramSet: a bounded, named
// collection of latency histograms sharing the engine's bucket edges,
// for subsystems outside the engine that serve the same histogram shape
// (the campaign store's per-tenant decode latencies). Past limit
// distinct keys, observations collapse into the "other" key; limit 0
// means unbounded. Safe for concurrent use.
type LatencySet struct{ set histogramSet }

// NewLatencySet creates a LatencySet retaining at most limit keys.
func NewLatencySet(limit int) *LatencySet {
	return &LatencySet{set: histogramSet{limit: limit}}
}

// Observe records one latency under key.
func (s *LatencySet) Observe(key string, d time.Duration) { s.set.get(key).observe(d) }

// Snapshot returns the current histograms keyed by name (nil when
// nothing has been observed).
func (s *LatencySet) Snapshot() map[string]LatencyHistogram { return s.set.snapshot() }

func (s *histogramSet) snapshot() map[string]LatencyHistogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.m) == 0 {
		return nil
	}
	out := make(map[string]LatencyHistogram, len(s.m))
	for name, h := range s.m {
		out[name] = h.snapshot()
	}
	return out
}
