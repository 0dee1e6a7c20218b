// Package engine is the reconstruction engine behind the pooledd service
// and the experiment sweeps: it amortizes design construction across
// requests and pipelines many decode jobs through a bounded worker pool.
//
// The paper's premise (Gebhard et al., IPDPS 2022) is that the pooled
// measurement round is the expensive step while reconstruction is cheap.
// That only holds operationally if the reconstruction side never rebuilds
// the Γ = n/2 random-regular design per request: a screening lab or
// feature-selection pipeline runs the one-design/many-signals regime, so
// the engine owns
//
//   - a scheme cache keyed by (design, n, m, seed) with LRU eviction and
//     build deduplication: concurrent requests for the same design trigger
//     exactly one pooling build and share the immutable graph;
//   - a decode pipeline: Submit(job) → Future through a bounded shard
//     queue (Queue, the one a remote shard client runs on too) drained
//     by a worker pool, with per-job decoder selection, context
//     cancellation, and per-job stats (queue wait, decode time,
//     residual, consistency) recorded once per job, from its result, as
//     it settles (Recorder);
//   - a batched measurement path (MeasureBatch) that evaluates many
//     signals against one design, one scatter over each signal's support.
package engine

import (
	"fmt"
	"runtime"
	"time"

	"pooleddata/metrics/trace"
)

// Config sizes an Engine.
type Config struct {
	// CacheCapacity is the maximum number of cached schemes; 0 means 8.
	CacheCapacity int
	// Workers is the number of decode workers; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the decode job queue; 0 means 4·Workers.
	QueueDepth int
	// Traces, when set, makes the engine the trace owner for jobs that
	// arrive without a builder (Job.Trace == nil): it opens a span tree
	// per job, records the shard-queue and decode spans, and offers the
	// finished trace to the store's tail sampler. Jobs that already
	// carry a builder (the pooledd ingress and campaign paths) only get
	// spans appended — their creator finishes them. Nil records nothing.
	Traces *trace.Store
}

func (c Config) cacheCapacity() int {
	if c.CacheCapacity <= 0 {
		return 8
	}
	return c.CacheCapacity
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 4 * c.workers()
	}
	return c.QueueDepth
}

// Stats is a snapshot of the engine-level counters. The json tags are
// the wire names cmd/pooledd serves on /v1/stats.
type Stats struct {
	// Scheme cache.
	SchemesBuilt  uint64 `json:"schemes_built"`  // builds executed (cache misses that ran pooling.Build)
	CacheHits     uint64 `json:"cache_hits"`     // requests served from a completed cache entry
	BuildsDeduped uint64 `json:"builds_deduped"` // requests that joined an in-flight build
	Evictions     uint64 `json:"evictions"`      // schemes evicted by the LRU policy
	BuildFailures uint64 `json:"build_failures"` // builds that returned an error

	// Decode pipeline.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"` // decoded successfully
	JobsFailed    uint64 `json:"jobs_failed"`    // settled with an error that was not a cancellation
	JobsCanceled  uint64 `json:"jobs_canceled"`  // context ended before the job reached a decoder
	JobsRejected  uint64 `json:"jobs_rejected"`  // refused by admission control (saturated queue)
	Consistent    uint64 `json:"consistent"`     // completed jobs whose estimate reproduced y exactly

	// Batched measurement.
	SignalsMeasured uint64 `json:"signals_measured"` // signals evaluated through MeasureBatch

	// Cumulative time spent by completed jobs (nanoseconds on the wire).
	TotalQueueWait  time.Duration `json:"total_queue_wait_ns"`
	TotalDecodeTime time.Duration `json:"total_decode_time_ns"`

	// DecodeLatency are per-decoder latency histograms over every job that
	// reached its decoder (completed or failed), keyed by decoder name.
	DecodeLatency map[string]LatencyHistogram `json:"decode_latency,omitempty"`

	// QueueLatency and SettleLatency are the remaining pipeline stage
	// timers, keyed by decoder name like DecodeLatency: time between
	// enqueue and a decoder picking the job up (on a remote shard, the
	// client's queue plus the worker's), and time spent completing the
	// future plus running the OnDone callback. Together with
	// DecodeLatency they account for a job's whole life in the shard.
	QueueLatency  map[string]LatencyHistogram `json:"queue_latency,omitempty"`
	SettleLatency map[string]LatencyHistogram `json:"settle_latency,omitempty"`

	// NoiseQueueLatency is the queue-wait breakdown keyed by canonical
	// noise-model key, the per-model counterpart of QueueLatency.
	NoiseQueueLatency map[string]LatencyHistogram `json:"noise_queue_latency,omitempty"`

	// JobsByNoise counts jobs that reached their decoder, keyed by the
	// canonical noise-model key ("exact", "gaussian(sigma=0.5)",
	// "threshold(T=2)") — the per-model breakdown /v1/stats serves.
	JobsByNoise map[string]uint64 `json:"jobs_by_noise,omitempty"`
	// NoiseLatency are decode-latency histograms keyed the same way.
	NoiseLatency map[string]LatencyHistogram `json:"noise_latency,omitempty"`

	// SchemeLoad is the per-scheme hot-key table, hottest first: decode
	// load keyed by routing key, bounded to the top keys. A remote shard
	// client records its rows from the decode times its worker reports,
	// so a frontend's aggregate covers the jobs it sent to its workers.
	SchemeLoad []SchemeLoad `json:"scheme_load,omitempty"`
}

// add accumulates src into s (cluster aggregation). Histograms merge
// bucket-wise; every histogram shares the same bucket edges.
func (s *Stats) add(src Stats) {
	s.SchemesBuilt += src.SchemesBuilt
	s.CacheHits += src.CacheHits
	s.BuildsDeduped += src.BuildsDeduped
	s.Evictions += src.Evictions
	s.BuildFailures += src.BuildFailures
	s.JobsSubmitted += src.JobsSubmitted
	s.JobsCompleted += src.JobsCompleted
	s.JobsFailed += src.JobsFailed
	s.JobsCanceled += src.JobsCanceled
	s.JobsRejected += src.JobsRejected
	s.Consistent += src.Consistent
	s.SignalsMeasured += src.SignalsMeasured
	s.TotalQueueWait += src.TotalQueueWait
	s.TotalDecodeTime += src.TotalDecodeTime
	mergeHistMap(&s.DecodeLatency, src.DecodeLatency)
	mergeHistMap(&s.QueueLatency, src.QueueLatency)
	mergeHistMap(&s.SettleLatency, src.SettleLatency)
	mergeHistMap(&s.NoiseQueueLatency, src.NoiseQueueLatency)
	for key, n := range src.JobsByNoise {
		if s.JobsByNoise == nil {
			s.JobsByNoise = make(map[string]uint64)
		}
		s.JobsByNoise[key] += n
	}
	mergeHistMap(&s.NoiseLatency, src.NoiseLatency)
	s.SchemeLoad = mergeSchemeLoad(s.SchemeLoad, src.SchemeLoad, defaultLoadKeys)
}

// mergeHistMap accumulates src into *dst, allocating it on first use.
func mergeHistMap(dst *map[string]LatencyHistogram, src map[string]LatencyHistogram) {
	for key, h := range src {
		if *dst == nil {
			*dst = make(map[string]LatencyHistogram)
		}
		m := (*dst)[key]
		m.merge(h)
		(*dst)[key] = m
	}
}

// Engine is a reconstruction service core: scheme cache plus decode
// pipeline. Create one with New and release its workers with Close. Safe
// for concurrent use.
type Engine struct {
	// Cache is the engine's scheme cache; its Scheme, SchemeFromGraph
	// and SetHome are the engine's.
	*Cache

	// Queue is the engine's decode queue, drained by its decode
	// workers; its Submit, TrySubmit, Offer and queue gauges are the
	// engine's.
	*Queue

	cfg Config
	rec *Recorder
}

// New starts an Engine with cfg.Workers decode workers.
func New(cfg Config) *Engine {
	rec := NewRecorder()
	e := &Engine{
		Cache: NewCache(cfg.cacheCapacity()),
		Queue: NewQueue(cfg.queueDepth(), rec, nil, cfg.Traces),
		cfg:   cfg,
		rec:   rec,
	}
	e.Start(cfg.workers(), e.run)
	return e
}

// Close stops accepting jobs, drains the queue, and waits for the workers
// to exit. Queued jobs still complete.
func (e *Engine) Close() { e.Queue.Close() }

// Stats returns a snapshot of the engine counters, including the
// per-decoder and per-noise-model latency histograms: the recorder's
// snapshot plus the scheme cache's counters.
func (e *Engine) Stats() Stats {
	st := e.rec.Snapshot()
	e.Cache.AddCounters(&st)
	return st
}

// Workers reports the decode worker-pool size.
func (e *Engine) Workers() int { return e.cfg.workers() }

// Healthy is always true for a local engine shard (the Shard interface
// form of "in this process, reachable by definition").
func (e *Engine) Healthy() bool { return true }

// Addr is empty for local shards.
func (e *Engine) Addr() string { return "" }

// Engine is the in-process Shard implementation.
var _ Shard = (*Engine)(nil)
var _ HomeSetter = (*Engine)(nil)

// CachedSchemes reports the number of cached (or in-flight) schemes.
func (e *Engine) CachedSchemes() int { return e.Cache.len() }

// validateJob reports whether job is well-formed (scheme present, count
// length matching the design, weight in range, valid noise model): the
// check the cluster and every shard queue run before admitting it.
func validateJob(job Job) error {
	if job.Scheme == nil || job.Scheme.G == nil {
		return fmt.Errorf("engine: job has no scheme")
	}
	if len(job.Y) != job.Scheme.G.M() {
		return fmt.Errorf("engine: %d counts for %d queries", len(job.Y), job.Scheme.G.M())
	}
	if job.K < 0 || job.K > job.Scheme.G.N() {
		return fmt.Errorf("engine: weight k=%d out of [0,%d]", job.K, job.Scheme.G.N())
	}
	if err := job.Noise.Validate(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
