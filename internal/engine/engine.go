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
//   - a decode pipeline: Submit(job) → Future over a bounded worker pool,
//     with per-job decoder selection, context cancellation, and per-job
//     stats (queue wait, decode time, residual, consistency) aggregated
//     into engine-level counters;
//   - a batched measurement path (MeasureBatch) that evaluates many
//     signals against one design, one scatter over each signal's support.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pooleddata/internal/graph"
	"pooleddata/internal/pooling"
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
	// BuildParallelism bounds goroutines per design build; 0 means
	// GOMAXPROCS.
	BuildParallelism int
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
	JobsFailed    uint64 `json:"jobs_failed"`    // decoder returned an error
	JobsCanceled  uint64 `json:"jobs_canceled"`  // context canceled before a worker picked the job up
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
	// enqueue and a worker picking the job up, and time spent completing
	// the future plus running the OnDone callback. Together with
	// DecodeLatency they account for a job's whole life inside the
	// engine.
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
	// load keyed by routing key, bounded to the top keys. It crosses the
	// federation hop inside /shard/v1/stats, so a frontend's aggregate
	// covers work its remote workers executed.
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

// counters is the mutable, atomically-updated backing of Stats.
type counters struct {
	schemesBuilt, cacheHits, buildsDeduped, evictions, buildFailures atomic.Uint64
	jobsSubmitted, jobsCompleted, jobsFailed, jobsCanceled           atomic.Uint64
	jobsRejected, consistent, signalsMeasured                        atomic.Uint64
	queueWaitNS, decodeNS                                            atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		SchemesBuilt:    c.schemesBuilt.Load(),
		CacheHits:       c.cacheHits.Load(),
		BuildsDeduped:   c.buildsDeduped.Load(),
		Evictions:       c.evictions.Load(),
		BuildFailures:   c.buildFailures.Load(),
		JobsSubmitted:   c.jobsSubmitted.Load(),
		JobsCompleted:   c.jobsCompleted.Load(),
		JobsFailed:      c.jobsFailed.Load(),
		JobsCanceled:    c.jobsCanceled.Load(),
		JobsRejected:    c.jobsRejected.Load(),
		Consistent:      c.consistent.Load(),
		SignalsMeasured: c.signalsMeasured.Load(),
		TotalQueueWait:  time.Duration(c.queueWaitNS.Load()),
		TotalDecodeTime: time.Duration(c.decodeNS.Load()),
	}
}

// Engine is a reconstruction service core: scheme cache plus decode
// pipeline. Create one with New and release its workers with Close. Safe
// for concurrent use.
type Engine struct {
	cfg            Config
	cache          *cache
	stats          counters
	hist           histogramSet
	noiseHist      histogramSet
	queueHist      histogramSet
	settleHist     histogramSet
	noiseQueueHist histogramSet
	load           *loadTable

	jobs chan *task
	wg   sync.WaitGroup

	mu     sync.RWMutex // guards closed vs. in-flight Submit sends
	closed bool
}

// New starts an Engine with cfg.Workers decode workers.
func New(cfg Config) *Engine {
	e := &Engine{
		cfg:  cfg,
		jobs: make(chan *task, cfg.queueDepth()),
	}
	// Noise-model keys embed caller-supplied parameters (σ, T); bound the
	// per-model breakdowns so a sigma sweep cannot grow them without
	// limit.
	e.noiseHist.limit = 64
	e.noiseQueueHist.limit = 64
	e.load = newLoadTable(defaultLoadKeys)
	e.cache = newCache(cfg.cacheCapacity(), &e.stats)
	for w := 0; w < cfg.workers(); w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close stops accepting jobs, drains the queue, and waits for the workers
// to exit. Queued jobs still complete.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	close(e.jobs)
	e.mu.Unlock()
	e.wg.Wait()
}

// Stats returns a snapshot of the engine counters, including the
// per-decoder and per-noise-model latency histograms.
func (e *Engine) Stats() Stats {
	st := e.stats.snapshot()
	st.DecodeLatency = e.hist.snapshot()
	st.NoiseLatency = e.noiseHist.snapshot()
	st.QueueLatency = e.queueHist.snapshot()
	st.SettleLatency = e.settleHist.snapshot()
	st.NoiseQueueLatency = e.noiseQueueHist.snapshot()
	st.SchemeLoad = e.load.snapshot(time.Now())
	if len(st.NoiseLatency) > 0 {
		st.JobsByNoise = make(map[string]uint64, len(st.NoiseLatency))
		for key, h := range st.NoiseLatency {
			st.JobsByNoise[key] = h.Count
		}
	}
	return st
}

// QueueDepth reports the number of decode jobs waiting for a worker.
func (e *Engine) QueueDepth() int { return len(e.jobs) }

// QueueCapacity reports the decode queue bound.
func (e *Engine) QueueCapacity() int { return cap(e.jobs) }

// Saturated reports whether the decode queue is full right now — the
// admission-control signal for batch submissions (single jobs use
// TrySubmit, which checks and enqueues atomically).
func (e *Engine) Saturated() bool { return len(e.jobs) == cap(e.jobs) }

// NoteRejected records n admission-control rejections that happened
// outside TrySubmit (a batch or campaign turned away up front).
func (e *Engine) NoteRejected(n int) { e.stats.jobsRejected.Add(uint64(n)) }

// Workers reports the decode worker-pool size.
func (e *Engine) Workers() int { return e.cfg.workers() }

// Healthy is always true for a local engine shard (the Shard interface
// form of "in this process, reachable by definition").
func (e *Engine) Healthy() bool { return true }

// Addr is empty for local shards.
func (e *Engine) Addr() string { return "" }

// SetHome assigns the cluster shard index stamped on every scheme this
// engine creates, so cluster routing (Scheme.Home) finds its way back.
// Must be called before the engine hands out schemes; NewClusterOf does
// it at assembly.
func (e *Engine) SetHome(i int) { e.cache.home.Store(int64(i)) }

// Engine is the in-process Shard implementation.
var _ Shard = (*Engine)(nil)
var _ HomeSetter = (*Engine)(nil)

// ValidateJob reports whether job is well-formed (scheme present, count
// length matching the design, weight in range, valid noise model) — the
// same check the cluster and pipeline run, exported for alternative
// Shard implementations.
func ValidateJob(job Job) error { return validateJob(job) }

// CachedSchemes reports the number of cached (or in-flight) schemes.
func (e *Engine) CachedSchemes() int { return e.cache.len() }

// Scheme returns the cached scheme for (des, n, m, seed), building it at
// most once no matter how many goroutines ask concurrently. The returned
// scheme is shared: callers on a cache hit receive the identical pointer.
func (e *Engine) Scheme(des pooling.Design, n, m int, seed uint64) (*Scheme, error) {
	if des == nil {
		des = pooling.RandomRegular{}
	}
	spec := SpecFor(des, n, m, seed)
	return e.cache.get(spec, func() (*graph.Bipartite, error) {
		return des.Build(n, m, pooling.BuildOptions{Seed: seed, Parallelism: e.cfg.BuildParallelism})
	})
}

// SchemeFromGraph wraps a prebuilt design (e.g. one uploaded as a labio
// CSV file) as an engine scheme routed by key, without caching it. A
// standalone engine may pass "": routing then falls back to the home
// shard.
func (e *Engine) SchemeFromGraph(g *graph.Bipartite, key string) *Scheme {
	return &Scheme{G: g, home: int(e.cache.home.Load()), key: key}
}

// InstallScheme inserts a prebuilt design into the scheme cache under
// spec, replacing any existing entry — the warm-start path for labio
// design files loaded at boot. The installed scheme is an ordinary cache
// entry afterwards: hits, LRU order, and eviction all apply.
func (e *Engine) InstallScheme(spec Spec, g *graph.Bipartite) *Scheme {
	return e.cache.put(spec, g)
}

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
