// Package remote federates the reconstruction engine across machines:
// it implements engine.Shard over HTTP, so an engine.Cluster can mix
// in-process shards with shards served by `pooledd -worker` processes
// on other hosts. The shard boundary was already the RPC boundary —
// schemes route to their owning shard by spec hash, jobs carry their
// scheme, and admission control speaks ErrSaturated — so the wire
// protocol is a direct transcription of that surface:
//
//	PUT  /shard/v1/schemes/{id}      the design's binary form (package
//	                                 graph's) → 204, 415 for any other
//	                                 media type (idempotent install; the
//	                                 frontend owns the graph and ships
//	                                 it, so worker and frontend are
//	                                 bit-identical by construction)
//	POST /shard/v1/decode-batch      binary frame of one or more decode
//	                                 jobs → 200 with one status-tagged
//	                                 result per job (an unknown scheme
//	                                 answers its job notFound: the client
//	                                 re-installs and retries); the worker
//	                                 admits the frame whole
//	GET  /shard/v1/health            liveness + queue gauges (probe target)
//
// The frame layouts are specified in docs/shard-protocol.md. A
// frontend's counters, stage histograms and spans come from one record:
// the client records every job it settles from the result frame that
// carried it (engine.Recorder), current the moment the job settles. A
// worker's own counters are on its /metrics.
//
// The client (Shard) runs on the engine's own shard queue
// (engine.Queue): the queue a local shard's decoders drain is drained
// here by a pool of sender goroutines over one shared,
// connection-reusing http.Client. Each sender ships the jobs already
// queued behind the one it picked up as one frame, so a lone job rides
// a one-job frame. A full client queue returns ErrSaturated — it is a
// local shard's queue, with its submit modes and rejection accounting —
// and every request carries a deadline. Failures are bounded-retry-then-fail:
// a dead worker marks the shard unhealthy (a background probe flips it
// back), and its jobs settle with an error wrapping ErrWorkerUnavailable,
// so campaigns terminate with per-job errors instead of wedging.
package remote

// Shard API paths, versioned separately from the public /v1 API.
const (
	schemePathPrefix = "/shard/v1/schemes/"
	decodeBatchPath  = "/shard/v1/decode-batch"
	healthPath       = "/shard/v1/health"
)

// healthResponse is the probe payload: liveness plus the gauges the
// frontend surfaces per shard in /v1/stats.
type healthResponse struct {
	OK            bool `json:"ok"`
	Shards        int  `json:"shards"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCapacity int  `json:"queue_capacity"`
	Workers       int  `json:"workers"`
	CachedSchemes int  `json:"cached_schemes"`
}

// errorBody is the JSON error envelope, same shape as pooledd's.
type errorBody struct {
	Error string `json:"error"`
}
