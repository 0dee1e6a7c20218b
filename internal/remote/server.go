package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"strings"
	"sync"

	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/metrics"
)

// ServerOptions sizes a worker-side shard server.
type ServerOptions struct {
	// MaxSchemes bounds the installed-scheme registry; beyond it the
	// oldest entries are dropped and later decodes against them return
	// 404 (the client re-installs). 0 means 64.
	MaxSchemes int
	// MaxBody bounds request bodies (design uploads). 0 means 256 MiB.
	MaxBody int64
	// Logger receives structured per-decode logs carrying the trace id
	// propagated from the frontend. Nil means slog.Default().
	Logger *slog.Logger
	// Metrics, when set, receives the server's request counters
	// (installs, decode requests by status) and an installed-schemes
	// gauge. Nil records nothing.
	Metrics *metrics.Registry
}

func (o ServerOptions) maxSchemes() int {
	if o.MaxSchemes <= 0 {
		return 64
	}
	return o.MaxSchemes
}

func (o ServerOptions) maxBody() int64 {
	if o.MaxBody <= 0 {
		return 256 << 20
	}
	return o.MaxBody
}

func (o ServerOptions) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return slog.Default()
}

// Server is the worker side of the shard protocol: it serves decode
// jobs against designs installed by its frontends, over a local engine
// cluster. `pooledd -worker` is exactly this handler behind an
// http.Server.
type Server struct {
	cluster *engine.Cluster
	opts    ServerOptions
	log     *slog.Logger

	mInstalls *metrics.Counter
	mDecodes  *metrics.CounterVec

	mu      sync.Mutex
	schemes map[string]*engine.Scheme
	order   []string // installation order, oldest first
}

// NewServer builds a shard server over the cluster. The caller owns the
// cluster's lifecycle (Close).
func NewServer(cluster *engine.Cluster, opts ServerOptions) *Server {
	s := &Server{
		cluster: cluster,
		opts:    opts,
		log:     opts.logger(),
		schemes: make(map[string]*engine.Scheme),
	}
	reg := opts.Metrics
	s.mInstalls = reg.Counter("pooled_worker_scheme_installs_total",
		"Designs installed through PUT /shard/v1/schemes.").With()
	s.mDecodes = reg.Counter("pooled_worker_decode_requests_total",
		"Shard decode requests by HTTP status.", "status")
	reg.OnGather(func(e *metrics.Exporter) {
		e.Gauge("pooled_worker_installed_schemes", "Schemes resident in the worker's install registry.", float64(s.SchemeCount()))
	})
	return s
}

// Handler returns the shard API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /shard/v1/schemes/{id}", s.handleInstall)
	mux.HandleFunc("POST /shard/v1/decode-batch", s.handleDecodeBatch)
	mux.HandleFunc("GET /shard/v1/health", s.handleHealth)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "unknown route %s %s", r.Method, r.URL.Path)
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.maxBody())
		}
		mux.ServeHTTP(w, r)
	})
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// handleInstall registers the design, sent in its binary form, under
// the caller-chosen id, replacing any previous entry — installs are
// idempotent, so a frontend re-ensuring after a worker restart or
// registry eviction needs no coordination. Any other media type answers
// 415, and a body graph.ParseBinary refuses 400 with its reason.
func (s *Server) handleInstall(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "" {
		writeError(w, http.StatusBadRequest, "empty scheme id")
		return
	}
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err != nil || mt != designMediaType {
		writeError(w, http.StatusUnsupportedMediaType, "scheme install wants Content-Type %s", designMediaType)
		return
	}
	body, err := s.readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	g, err := graph.ParseBinary(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse design: %v", err)
		return
	}
	// Place, route and account under the install id — the canonical key
	// the frontend placed this scheme by (spec key, or the content hash
	// for ad-hoc uploads) — so the fleet-merged load table's keys match
	// the ring the frontend resolves owners on.
	es := s.cluster.SchemeFromGraph(g, id)
	s.mu.Lock()
	if _, ok := s.schemes[id]; !ok {
		s.order = append(s.order, id)
	}
	s.schemes[id] = es
	for len(s.schemes) > s.opts.maxSchemes() {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.schemes, oldest)
	}
	s.mu.Unlock()
	s.mInstalls.Inc()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) lookup(id string) (*engine.Scheme, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	es, ok := s.schemes[id]
	return es, ok
}

// SchemeCount reports the number of installed schemes (tests, gauges).
func (s *Server) SchemeCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.schemes)
}

// handleDecodeBatch runs a frame of decode jobs through the worker's
// cluster. The frame is admitted whole: each job is submitted as it
// parses, waiting for queue room under the request's context, so a
// frame larger than the local queues is paced by the decoders rather
// than refused, and backpressure stays with the client's bounded queue.
// Jobs are awaited in order. Outcomes are per job — one job's unknown
// scheme does not fail its frame-mates — carried as status bytes in the
// binary response frame. Content-Type must name the batch framing (else
// 415), and the response is binary unless the client's Accept excludes
// it.
func (s *Server) handleDecodeBatch(w http.ResponseWriter, r *http.Request) {
	if mt, _, err := mime.ParseMediaType(r.Header.Get("Content-Type")); err != nil || mt != batchMediaType {
		writeError(w, http.StatusUnsupportedMediaType, "decode-batch wants Content-Type %s", batchMediaType)
		return
	}
	if acc := r.Header.Get("Accept"); acc != "" && !strings.Contains(acc, batchMediaType) && !strings.Contains(acc, "*/*") {
		writeError(w, http.StatusNotAcceptable, "decode-batch answers %s", batchMediaType)
		return
	}
	body, err := s.readBody(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request: %v", err)
		return
	}
	fr := &frameReader{data: body}
	count, err := fr.header(batchRequestMagic)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse batch frame: %v", err)
		return
	}

	// Parse and admit in one pass: job 1 is decoding while job N still
	// parses. A malformed tail answers 400 for the whole frame; jobs
	// already admitted decode into discarded futures, which is harmless —
	// decodes are deterministic.
	jobs := make([]batchJob, count)
	results := make([]batchResult, count)
	futs := make([]*engine.Future, count)
	for i := range jobs {
		if jobs[i], err = fr.job(i); err != nil {
			writeError(w, http.StatusBadRequest, "parse batch frame: %v", err)
			return
		}
		bj := &jobs[i]
		res := &results[i]
		es, ok := s.lookup(bj.Scheme)
		if !ok {
			res.Status, res.Err = batchNotFound, fmt.Sprintf("unknown scheme %q", bj.Scheme)
			continue
		}
		nm, err := noise.Parse(bj.Noise)
		if err != nil {
			res.Status, res.Err = batchBadRequest, fmt.Sprintf("bad noise: %v", err)
			continue
		}
		job := engine.Job{Scheme: es, Y: bj.Y, K: bj.K, Noise: nm, TraceID: bj.Trace}
		if bj.Decoder != "" {
			dec, err := engine.DecoderByName(bj.Decoder)
			if err != nil {
				res.Status, res.Err = batchBadRequest, err.Error()
				continue
			}
			job.Dec = dec
		}
		fut, err := s.cluster.Submit(r.Context(), job)
		switch {
		case err == nil:
			futs[i] = fut
		case r.Context().Err() != nil:
			// The client gave up on the frame; jobs already queued under
			// this context are skipped by the engine.
			return
		case errors.Is(err, engine.ErrClosed):
			res.Status, res.Err = batchUnavailable, "engine closed"
		default:
			res.Status, res.Err = batchBadRequest, err.Error()
		}
	}
	if fr.remaining() != 0 {
		writeError(w, http.StatusBadRequest, "parse batch frame: %d trailing bytes", fr.remaining())
		return
	}
	for i, fut := range futs {
		if fut == nil {
			continue
		}
		bj, out := &jobs[i], &results[i]
		res, err := fut.Wait(r.Context())
		if err != nil {
			s.log.Warn("decode failed", "trace_id", bj.Trace, "scheme", bj.Scheme, "err", err)
			out.Status, out.Err = batchDecodeErr, fmt.Sprintf("decode: %v", err)
			continue
		}
		out.Status = batchOK
		out.Decoder = res.Decoder
		out.Residual = res.Stats.Residual
		out.Consistent = res.Stats.Consistent
		out.QueueNS = int64(res.Stats.QueueWait)
		out.DecodeNS = int64(res.Stats.DecodeTime)
		out.Support = res.Support
		s.log.Info("decode",
			"trace_id", bj.Trace, "scheme", bj.Scheme, "decoder", res.Decoder,
			"k", bj.K, "consistent", res.Stats.Consistent,
			"queue_ns", int64(res.Stats.QueueWait), "decode_ns", int64(res.Stats.DecodeTime))
	}
	for i := range results {
		s.mDecodes.With(batchStatusCode(results[i].Status)).Inc()
	}
	w.Header().Set("Content-Type", batchMediaType)
	w.WriteHeader(http.StatusOK)
	w.Write(appendBatchResponse(nil, results))
}

// readBody reads a frame body with the declared length preallocated
// (MaxBytesReader already bounds it), so a large frame doesn't pay
// ReadAll's doubling-growth copies.
func (s *Server) readBody(r *http.Request) ([]byte, error) {
	if n := r.ContentLength; n >= 0 && n <= s.opts.maxBody() {
		body := make([]byte, n)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	return io.ReadAll(r.Body)
}

// batchStatusCode maps a per-job frame status to the HTTP status that
// labels it in the decode-request counter.
func batchStatusCode(st byte) string {
	switch st {
	case batchOK:
		return "200"
	case batchNotFound:
		return "404"
	case batchSaturated:
		return "429"
	case batchDecodeErr:
		return "422"
	case batchBadRequest:
		return "400"
	default:
		return "503"
	}
}

// handleHealth answers the probe. Installed designs never enter the
// engine shards' caches, so the resident count is the install table's.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := healthResponse{OK: true, Shards: s.cluster.Shards(), CachedSchemes: s.SchemeCount()}
	for i := 0; i < s.cluster.Shards(); i++ {
		sh := s.cluster.Shard(i)
		h.QueueDepth += sh.QueueDepth()
		h.QueueCapacity += sh.QueueCapacity()
		h.Workers += sh.Workers()
	}
	writeJSON(w, http.StatusOK, h)
}
