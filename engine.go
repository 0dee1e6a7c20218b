package pooled

import (
	"context"
	"time"

	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/remote"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

// This file is the public face of the reconstruction cluster
// (internal/engine): N engine shards, each a scheme cache plus a
// batched decode pipeline, with schemes routed to their owning shard by
// spec hash — the one-design/many-signals regime a screening lab or
// feature-selection service runs, partitioned so concurrent designs
// never evict each other. cmd/pooledd serves exactly this API over
// HTTP.

// EngineOptions sizes an Engine.
type EngineOptions struct {
	// Shards is the number of engine shards; 0 means 1. Each shard owns a
	// private scheme cache and worker pool, and a scheme always lives on
	// the shard its (design, n, m, seed) spec hashes to — size up for
	// isolation between concurrent designs, down for maximum parallelism
	// on a single design.
	Shards int
	// CacheCapacity is the maximum number of cached schemes per shard;
	// 0 means 8.
	CacheCapacity int
	// Workers is the decode worker-pool size per shard; 0 splits
	// GOMAXPROCS evenly across the shards (at least one each).
	Workers int
	// QueueDepth bounds each shard's pending decode queue; 0 means
	// 4·Workers.
	QueueDepth int
	// TenantMaxActive bounds concurrently unfinished campaigns per
	// tenant (StartCampaign); 0 means unlimited.
	TenantMaxActive int
	// TenantMaxQueued bounds unsettled campaign jobs per tenant; 0 means
	// unlimited.
	TenantMaxQueued int
	// TenantWeights sets per-tenant dispatch weights for StartCampaign's
	// weighted fair queuing: a tenant with weight w is offered up to w
	// jobs per rotation turn. Unlisted tenants weigh 1 (equal turns).
	TenantWeights map[string]int
	// RemoteWorkers federates the engine across machines: a non-empty
	// list of `pooledd -worker` addresses (host:port) makes every shard
	// a remote client, one per address — schemes build locally (the
	// frontend keeps the graphs) and decode jobs run on the workers,
	// with health probes and bounded retry-then-fail failover. Shards,
	// CacheCapacity, Workers, and QueueDepth are ignored in this mode.
	//
	// The boot list is a starting point, not a commitment: membership
	// is elastic at runtime via AddRemoteWorker/RemoveWorker. Schemes
	// are placed on a consistent-hash ring over the members, so a
	// topology change moves only the arcs adjacent to the changed
	// member — the rest of the fleet keeps its caches warm.
	RemoteWorkers []string
	// MetricsRegistry, when set, receives the engine's observability
	// surface: pipeline counters and stage timers, per-shard gauges,
	// campaign-store gauges, and — with RemoteWorkers — the remote
	// transport's request timers and health-transition counters. Serve
	// it with MetricsRegistry.Handler() (Prometheus text exposition).
	// Nil records nothing at zero cost.
	MetricsRegistry *metrics.Registry
	// TraceStore enables span-level job tracing when > 0 (or when
	// TraceSample is set): every decode and campaign job builds a span
	// tree (queue wait, decode, wire stages on federated paths), and the
	// tail sampler retains errored jobs, jobs slower than the rolling
	// latency threshold, and a TraceSample fraction of the rest, in a
	// bounded ring of this capacity (0 with tracing on: 1024). Read the
	// retained traces back with TraceByID / RecentTraces.
	TraceStore int
	// TraceSample is the baseline retention rate for unremarkable job
	// traces, in [0, 1]. Sampling is deterministic per trace id.
	TraceSample float64
}

// EngineStats is a snapshot of an Engine's counters.
type EngineStats struct {
	// Scheme cache: builds executed, requests served from cache, requests
	// that joined an in-flight build instead of rebuilding, LRU evictions.
	SchemesBuilt  uint64
	CacheHits     uint64
	BuildsDeduped uint64
	Evictions     uint64

	// Decode pipeline.
	JobsSubmitted uint64
	JobsCompleted uint64
	JobsFailed    uint64
	JobsCanceled  uint64
	Consistent    uint64

	// JobsRejected counts decode jobs refused by admission control
	// because the owning shard's queue was saturated.
	JobsRejected uint64

	// Signals evaluated through the batched measurement path.
	SignalsMeasured uint64

	// Cumulative queue wait and decode time over completed jobs.
	TotalQueueWait  time.Duration
	TotalDecodeTime time.Duration

	// DecodeLatency are per-decoder latency histograms (merged across
	// shards), keyed by decoder name.
	DecodeLatency map[string]LatencyHistogram

	// JobsByNoise counts jobs that reached their decoder, keyed by the
	// canonical noise-model key ("exact", "gaussian(sigma=0.5)", ...).
	JobsByNoise map[string]uint64

	// Shards is the per-shard breakdown, one entry per engine shard.
	Shards []ShardStats
}

// LatencyHistogram is a bounded-bucket latency distribution: Counts has
// one bucket per BucketUpper edge plus a final overflow bucket.
type LatencyHistogram struct {
	// Count is the number of observations; Total their sum.
	Count uint64
	Total time.Duration
	// BucketUpper are the inclusive upper edges; len(Counts) is
	// len(BucketUpper)+1.
	BucketUpper []time.Duration
	Counts      []uint64
}

// ShardStats is one engine shard's view: cache and pipeline counters
// plus live queue gauges.
type ShardStats struct {
	// Shard is the shard index (what Spec hashes route to).
	Shard int
	// QueueDepth is the number of queued jobs right now; QueueCapacity
	// the configured bound; Workers the shard's pool size.
	QueueDepth, QueueCapacity, Workers int
	// CachedSchemes counts the shard's resident schemes.
	CachedSchemes int
	// Healthy is always true for local shards; remote shards report
	// their probe state. Addr is the worker address, empty for local
	// shards.
	Healthy bool
	Addr    string

	SchemesBuilt, CacheHits, Evictions         uint64
	JobsSubmitted, JobsCompleted, JobsRejected uint64
}

// DecodeResult is one pipelined reconstruction plus its per-job stats.
type DecodeResult struct {
	// Support is the recovered one-entry index set, ascending.
	Support []int
	// Decoder names the decoder that ran the job — for noisy requests
	// without an explicit decoder, the one the noise policy selected.
	Decoder string
	// QueueWait is how long the job sat in the queue before a worker
	// picked it up.
	QueueWait time.Duration
	// DecodeTime is the time spent inside the decoder.
	DecodeTime time.Duration
	// Residual is the L1 misfit of the estimate against the counts.
	Residual int64
	// Consistent reports whether the estimate reproduces the counts
	// exactly.
	Consistent bool
}

// Engine is a sharded reconstruction cluster: it amortizes design
// construction across requests (per-shard LRU scheme caches with build
// deduplication), pipelines decode jobs through each shard's bounded
// worker pool, and routes every scheme to the shard owning its spec
// hash. Safe for concurrent use; release the workers with Close when
// done.
type Engine struct {
	inner     *engine.Cluster
	campaigns *campaign.Store
	reg       *metrics.Registry
	traces    *trace.Store
}

// NewEngine starts an engine cluster — local shards, or remote shard
// clients when RemoteWorkers is set.
func NewEngine(opts EngineOptions) *Engine {
	var traces *trace.Store
	if opts.TraceStore > 0 || opts.TraceSample > 0 {
		traces = trace.NewStore(trace.Config{Capacity: opts.TraceStore, SampleRate: opts.TraceSample})
	}
	var inner *engine.Cluster
	if len(opts.RemoteWorkers) > 0 {
		shards := make([]engine.Shard, len(opts.RemoteWorkers))
		for i, addr := range opts.RemoteWorkers {
			shards[i] = remote.New(remote.Options{Addr: addr, Metrics: opts.MetricsRegistry})
		}
		inner = engine.NewClusterOf(shards...)
	} else {
		inner = engine.NewCluster(engine.ClusterConfig{
			Shards: opts.Shards,
			Shard: engine.Config{
				CacheCapacity: opts.CacheCapacity,
				Workers:       opts.Workers,
				QueueDepth:    opts.QueueDepth,
				Traces:        traces,
			},
		})
	}
	st := campaign.NewStore(inner, campaign.Config{
		TenantMaxActive: opts.TenantMaxActive,
		TenantMaxQueued: opts.TenantMaxQueued,
		TenantWeights:   opts.TenantWeights,
		Traces:          traces,
	})
	engine.RegisterClusterMetrics(opts.MetricsRegistry, inner)
	campaign.RegisterStoreMetrics(opts.MetricsRegistry, st)
	return &Engine{inner: inner, campaigns: st, reg: opts.MetricsRegistry, traces: traces}
}

// TraceByID returns a retained job trace — the span tree of one decode
// or campaign job — by its trace id. False when tracing is off, the id
// was never retained, or the ring evicted it.
func (e *Engine) TraceByID(id string) (*trace.Trace, bool) {
	return e.traces.Get(id)
}

// RecentTraces lists up to limit retained traces, newest first
// (limit <= 0 means 50). Nil when tracing is off.
func (e *Engine) RecentTraces(limit int) []*trace.Trace {
	return e.traces.Recent(trace.Filter{}, limit)
}

// Close stops the campaign dispatcher, drains every shard's decode
// queue, and stops the workers.
func (e *Engine) Close() {
	e.campaigns.Close()
	e.inner.Close()
}

// AddRemoteWorker joins a `pooledd -worker` at addr to the fleet at
// runtime. The new member takes over its consistent-hash arcs
// immediately: schemes whose keys land there are served by it from the
// next request on, and in-flight campaigns start offering it jobs.
// Fails on a duplicate address, before any client is built for it.
// Mixing a remote worker into a local-shard engine is allowed — the
// ring routes across both.
func (e *Engine) AddRemoteWorker(addr string) error {
	return e.inner.AddShard(addr, func() engine.Shard { return remote.New(remote.Options{Addr: addr, Metrics: e.reg}) })
}

// RemoveWorker drains the fleet member with the given id (the worker
// address, or "local-<i>" for boot-time local shards) out of the ring
// and closes it. Its arcs move to the surviving members; queued
// campaign jobs that were bound for it re-dispatch through the ring
// rather than failing. Removing the last member is refused.
func (e *Engine) RemoveWorker(id string) error {
	sh, err := e.inner.RemoveShard(id)
	if err != nil {
		return err
	}
	sh.Close()
	return nil
}

// Members lists the current consistent-hash-ring membership, sorted.
func (e *Engine) Members() []string {
	return e.inner.MemberIDs()
}

// Stats returns a snapshot of the cluster counters: the fleet-wide
// aggregate plus the per-shard breakdown.
func (e *Engine) Stats() EngineStats {
	cs := e.inner.Stats()
	st := cs.Total
	out := EngineStats{
		SchemesBuilt:    st.SchemesBuilt,
		CacheHits:       st.CacheHits,
		BuildsDeduped:   st.BuildsDeduped,
		Evictions:       st.Evictions,
		JobsSubmitted:   st.JobsSubmitted,
		JobsCompleted:   st.JobsCompleted,
		JobsFailed:      st.JobsFailed,
		JobsCanceled:    st.JobsCanceled,
		JobsRejected:    st.JobsRejected,
		Consistent:      st.Consistent,
		SignalsMeasured: st.SignalsMeasured,
		TotalQueueWait:  st.TotalQueueWait,
		TotalDecodeTime: st.TotalDecodeTime,
		Shards:          make([]ShardStats, len(cs.Shards)),
	}
	if len(st.JobsByNoise) > 0 {
		out.JobsByNoise = make(map[string]uint64, len(st.JobsByNoise))
		for key, n := range st.JobsByNoise {
			out.JobsByNoise[key] = n
		}
	}
	if len(st.DecodeLatency) > 0 {
		out.DecodeLatency = make(map[string]LatencyHistogram, len(st.DecodeLatency))
		for name, h := range st.DecodeLatency {
			out.DecodeLatency[name] = fromEngineHistogram(h)
		}
	}
	for i, sh := range cs.Shards {
		out.Shards[i] = ShardStats{
			Shard:         sh.Shard,
			QueueDepth:    sh.QueueDepth,
			QueueCapacity: sh.QueueCapacity,
			Workers:       sh.Workers,
			CachedSchemes: sh.CachedSchemes,
			Healthy:       sh.Healthy,
			Addr:          sh.Addr,
			SchemesBuilt:  sh.SchemesBuilt,
			CacheHits:     sh.CacheHits,
			Evictions:     sh.Evictions,
			JobsSubmitted: sh.JobsSubmitted,
			JobsCompleted: sh.JobsCompleted,
			JobsRejected:  sh.JobsRejected,
		}
	}
	return out
}

func fromEngineHistogram(h engine.LatencyHistogram) LatencyHistogram {
	out := LatencyHistogram{
		Count:       h.Count,
		Total:       time.Duration(h.TotalNS),
		BucketUpper: make([]time.Duration, len(h.BucketUpperNS)),
		Counts:      append([]uint64(nil), h.Counts...),
	}
	for i, ub := range h.BucketUpperNS {
		out.BucketUpper[i] = time.Duration(ub)
	}
	return out
}

// Scheme returns the cached scheme for (n, m, opts), building it at most
// once: concurrent callers for the same (design, n, m, seed) share a
// single pooling build, and repeated calls return the identical *Scheme.
func (e *Engine) Scheme(n, m int, opts Options) (*Scheme, error) {
	des, err := designFor(opts.Design)
	if err != nil {
		return nil, err
	}
	es, err := e.inner.Scheme(des, n, m, opts.Seed)
	if err != nil {
		return nil, err
	}
	s := schemeFromEngine(es, opts.Workers)
	if s.workers != opts.Workers {
		// The cached wrapper carries the first caller's worker preference.
		// A caller asking for a different one gets its own thin wrapper
		// around the same shared graph and engine scheme.
		return newWrapper(es, opts.Workers), nil
	}
	return s, nil
}

// newWrapper builds a public Scheme over a cached engine scheme.
func newWrapper(es *engine.Scheme, workers int) *Scheme {
	s := &Scheme{n: es.G.N(), m: es.G.M(), g: es.G, seed: es.Spec.Seed, workers: workers, es: es}
	s.esOnce.Do(func() {}) // es is already set; spend the Once
	return s
}

// schemeFromEngine wraps a cached engine scheme exactly once: the wrapper
// is stored on the scheme itself, so cache hits stay pointer-identical
// across the public API and the wrapper dies with the cached scheme.
func schemeFromEngine(es *engine.Scheme, workers int) *Scheme {
	return es.Ext(func() any { return newWrapper(es, workers) }).(*Scheme)
}

// engineScheme returns the engine-side view of s, wrapping ad-hoc schemes
// (pooled.New, LoadDesignCSV) on first use under their GraphKey: the key
// routes them on the ring and names their design to a remote worker.
func (s *Scheme) engineScheme() *engine.Scheme {
	s.esOnce.Do(func() {
		if s.es == nil {
			s.es = engine.NewSchemeAt(engine.Spec{}, engine.GraphKey(s.g), s.g, 0)
		}
	})
	return s.es
}

// Decode runs one reconstruction through the engine's worker pool and
// reports the per-job pipeline stats alongside the support.
func (e *Engine) Decode(ctx context.Context, s *Scheme, y []int64, k int, kind DecoderKind) (DecodeResult, error) {
	dec, err := decoderFor(kind, s.workers)
	if err != nil {
		return DecodeResult{}, err
	}
	res, err := e.inner.Decode(ctx, engine.Job{Scheme: s.engineScheme(), Y: y, K: k, Dec: dec})
	if err != nil {
		return DecodeResult{}, err
	}
	return fromEngineResult(res), nil
}

// DecodeBatch pipelines one decode per count vector through the worker
// pool — the batched counterpart of ReconstructWith. Results are in input
// order; the first error is returned after all jobs settle.
func (e *Engine) DecodeBatch(ctx context.Context, s *Scheme, ys [][]int64, k int, kind DecoderKind) ([]DecodeResult, error) {
	dec, err := decoderFor(kind, s.workers)
	if err != nil {
		return nil, err
	}
	results, err := e.inner.DecodeBatch(ctx, s.engineScheme(), ys, k, engine.Job{Dec: dec})
	out := make([]DecodeResult, len(results))
	for i, r := range results {
		out[i] = fromEngineResult(r)
	}
	return out, err
}

// MeasureBatch is Scheme.MeasureBatch routed through the engine so the
// batch shows up in its counters.
func (e *Engine) MeasureBatch(s *Scheme, signals [][]bool) [][]int64 {
	return e.inner.MeasureBatch(s.engineScheme(), s.batchVectors(signals), noise.Model{})
}

// MeasureBatchNoisy is MeasureBatch under a noise model: each signal's
// counts are perturbed with an independent, reproducible per-signal
// stream rooted at the model's seed, after the same per-signal scatter.
func (e *Engine) MeasureBatchNoisy(s *Scheme, signals [][]bool, nm NoiseModel) ([][]int64, error) {
	m := nm.internal()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return e.inner.MeasureBatch(s.engineScheme(), s.batchVectors(signals), m), nil
}

// DecodeNoisy runs one reconstruction of counts measured under the given
// noise model. The decoder is selected server-side by the noise policy
// (exact → MN, gaussian → swap-refined MN or the LP relaxation by σ,
// threshold → the threshold-GT decoder); DecodeResult.Decoder reports
// the pick, and Consistent is judged with the model's residual slack.
func (e *Engine) DecodeNoisy(ctx context.Context, s *Scheme, y []int64, k int, nm NoiseModel) (DecodeResult, error) {
	res, err := e.inner.Decode(ctx, engine.Job{Scheme: s.engineScheme(), Y: y, K: k, Noise: nm.internal()})
	if err != nil {
		return DecodeResult{}, err
	}
	return fromEngineResult(res), nil
}

// DecodeBatchNoisy pipelines one noisy decode per count vector through
// the worker pool — the batched counterpart of DecodeNoisy. Results are
// in input order; the first error is returned after all jobs settle.
func (e *Engine) DecodeBatchNoisy(ctx context.Context, s *Scheme, ys [][]int64, k int, nm NoiseModel) ([]DecodeResult, error) {
	results, err := e.inner.DecodeBatch(ctx, s.engineScheme(), ys, k, engine.Job{Noise: nm.internal()})
	out := make([]DecodeResult, len(results))
	for i, r := range results {
		out[i] = fromEngineResult(r)
	}
	return out, err
}

func fromEngineResult(r engine.Result) DecodeResult {
	return DecodeResult{
		Support:    r.Support,
		Decoder:    r.Decoder,
		QueueWait:  r.Stats.QueueWait,
		DecodeTime: r.Stats.DecodeTime,
		Residual:   r.Stats.Residual,
		Consistent: r.Stats.Consistent,
	}
}
