// Package remote federates the reconstruction engine across machines:
// it implements engine.Shard over HTTP, so an engine.Cluster can mix
// in-process shards with shards served by `pooledd -worker` processes
// on other hosts. The shard boundary was already the RPC boundary —
// schemes route to their owning shard by spec hash, jobs carry their
// scheme, and admission control speaks ErrSaturated — so the wire
// protocol is a direct transcription of that surface:
//
//	PUT  /shard/v1/schemes/{id}  binary design frame → 204, 415 for any
//	                             other media type (idempotent install;
//	                             the frontend owns the graph and ships
//	                             it, so worker and frontend are
//	                             bit-identical by construction — no
//	                             rebuild drift)
//	POST /shard/v1/decode        {"scheme":id,"y":[...],"k":16,
//	                             "noise":"gaussian:0.5:7","decoder":""}
//	                             → 200 result | 404 unknown scheme
//	                             (client re-installs and retries)
//	                             | 429 saturated (ErrSaturated mirrored
//	                             back into the dispatcher's backpressure)
//	                             | 422 decode error
//	GET  /shard/v1/health        liveness + queue gauges (probe target)
//	GET  /shard/v1/stats         engine.Stats JSON (fleet aggregation)
//
// The client (Shard) is structured like a miniature engine: a bounded
// client-side job queue plus a pool of sender goroutines over one
// shared, connection-reusing http.Client. A full client queue returns
// ErrSaturated — the same cooperative backpressure a full local queue
// produces — and every request carries a deadline. Failures are
// bounded-retry-then-fail: a dead worker marks the shard unhealthy
// (a background probe flips it back), and its jobs settle with an
// error wrapping ErrWorkerUnavailable, so campaigns terminate with
// per-job errors instead of wedging.
package remote

// Shard API paths, versioned separately from the public /v1 API.
const (
	schemePathPrefix = "/shard/v1/schemes/"
	decodePath       = "/shard/v1/decode"
	healthPath       = "/shard/v1/health"
	statsPath        = "/shard/v1/stats"
)

// decodeRequest is the wire form of one decode job. Noise travels in
// the compact colon form ("gaussian:0.5:7") shared with the CSV decode
// path; Decoder is an engine.DecoderByName name, empty for the noise
// policy's server-side pick.
type decodeRequest struct {
	Scheme  string  `json:"scheme"`
	K       int     `json:"k"`
	Decoder string  `json:"decoder,omitempty"`
	Noise   string  `json:"noise,omitempty"`
	Y       []int64 `json:"y"`
	// Trace carries the frontend's per-job trace id across the
	// federation hop, so worker logs correlate with frontend logs.
	Trace string `json:"trace,omitempty"`
}

// decodeResponse mirrors engine.Result on the wire.
type decodeResponse struct {
	Support    []int  `json:"support"`
	Decoder    string `json:"decoder,omitempty"`
	Residual   int64  `json:"residual"`
	Consistent bool   `json:"consistent"`
	QueueNS    int64  `json:"queue_ns"`
	DecodeNS   int64  `json:"decode_ns"`
	Trace      string `json:"trace,omitempty"`
}

// handleTimeHeader carries the worker's server-side handling time
// (nanoseconds, queue wait through response serialization) on decode
// responses, so the client can split a request's round trip into
// network time vs. worker time without clock synchronization.
const handleTimeHeader = "Pooled-Handle-Ns"

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
