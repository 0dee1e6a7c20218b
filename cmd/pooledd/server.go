package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pooleddata/internal/campaign"
	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/labio"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/remote"
	"pooleddata/internal/wal"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

// server is the HTTP front-end over the sharded reconstruction cluster.
// Scheme payloads and count payloads reuse the labio CSV wire formats,
// so a design written by WriteDesignCSV uploads unchanged and a robot's
// results file posts straight to /v1/decode. Batch work goes through
// the campaign subsystem: POST /v1/campaigns returns an id immediately
// and the jobs drain through the owning shard's pipeline.
type server struct {
	cluster   *engine.Cluster
	campaigns *campaign.Store
	start     time.Time

	// workerOpts is the client template of a -workers frontend: every
	// worker that joins, at boot or through POST /v1/workers, gets a
	// client built from it, and the cluster's ring is the one worker
	// list. Nil on a local-shard frontend, where the topology is fixed
	// at boot and the /v1/workers endpoints reject.
	workerOpts *remote.Options

	// maxSchemes bounds the id registry: beyond it the oldest entries are
	// dropped (their ids start returning 404), so uploaded ad-hoc designs
	// and churned specs cannot pin memory forever. maxBody bounds request
	// bodies. maxWait caps the campaign long-poll.
	maxSchemes int
	maxBody    int64
	maxWait    time.Duration

	// sseHeartbeat is the idle-keepalive interval of campaign event
	// streams; sseWriteTimeout is the per-write slow-client eviction
	// deadline.
	sseHeartbeat    time.Duration
	sseWriteTimeout time.Duration

	// Observability surface, attached by instrument(). metrics may be
	// nil (bare test servers): every instrument and the /metrics
	// handler are nil-safe no-ops then. traces is the span store behind
	// GET /v1/traces — nil when tracing is off, and every producer path
	// is nil-safe then.
	log           *slog.Logger
	metrics       *metrics.Registry
	traces        *trace.Store
	mSSEActive    *metrics.Gauge
	mSSEStreams   *metrics.Counter
	mSSEEvictions *metrics.Counter

	// journal holds the registry's scheme records (nil without a WAL).
	// regMu serializes registrations, each of which writes its record
	// before its entry becomes visible under mu; lookups take only mu,
	// so they never wait on disk. nextID is guarded by regMu. Entries
	// are immutable once inserted.
	journal *wal.WAL
	regMu   sync.Mutex
	nextID  int

	mu      sync.Mutex
	schemes map[string]*schemeEntry
	order   []string                // registration order, oldest first
	byKey   map[string]*schemeEntry // by the scheme's routing key
}

type schemeEntry struct {
	ID     string `json:"id"`
	Design string `json:"design"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	Seed   uint64 `json:"seed"`
	// Shard and Owner are the index and ring ID of the member owning this
	// scheme's key right now, read from the live ring each time the entry
	// is served (see placed), so they follow membership changes.
	Shard int    `json:"shard"`
	Owner string `json:"owner,omitempty"`
	AdHoc bool   `json:"ad_hoc,omitempty"`

	// Design parameters of parametric schemes, kept so the journaled
	// scheme ref can rebuild the scheme on the next boot.
	Gamma int     `json:"gamma,omitempty"`
	P     float64 `json:"p,omitempty"`
	D     int     `json:"d,omitempty"`

	scheme *engine.Scheme
}

func newServer(cluster *engine.Cluster, ccfg campaign.Config) *server {
	s := &server{
		cluster:         cluster,
		campaigns:       campaign.NewStore(cluster, ccfg),
		journal:         ccfg.WAL,
		start:           time.Now(),
		maxSchemes:      64,
		maxBody:         256 << 20,
		maxWait:         30 * time.Second,
		sseHeartbeat:    15 * time.Second,
		sseWriteTimeout: 10 * time.Second,
		schemes:         make(map[string]*schemeEntry),
		byKey:           make(map[string]*schemeEntry),
		log:             slog.Default(),
	}
	// Nil-safe instruments so handlers never branch on "is metrics
	// enabled"; main re-instruments with the real registry.
	s.instrument(nil, nil)
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/schemes", s.handleCreateScheme)
	mux.HandleFunc("GET /v1/schemes/{id}", s.handleGetScheme)
	mux.HandleFunc("GET /v1/schemes/{id}/design", s.handleGetDesign)
	mux.HandleFunc("POST /v1/decode", s.handleDecode)
	mux.HandleFunc("POST /v1/campaigns", s.handleCreateCampaign)
	mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGetCampaign)
	mux.HandleFunc("GET /v1/campaigns/{id}/events", s.handleCampaignEvents)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCancelCampaign)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/traces", s.handleListTraces)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleGetTrace)
	mux.HandleFunc("GET /v1/workers", s.handleListWorkers)
	mux.HandleFunc("POST /v1/workers", s.handleAddWorker)
	mux.HandleFunc("DELETE /v1/workers/{addr}", s.handleRemoveWorker)
	mux.Handle("GET /metrics", s.metrics.Handler())
	// Catch-all so unknown routes return a JSON body like every other
	// error path, not the mux's text/plain 404.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, "unknown route %s %s", r.Method, r.URL.Path)
	})
	return withTrace(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		}
		mux.ServeHTTP(w, r)
	}))
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// rejectSaturated writes the admission-control response: 429 with a
// Retry-After estimated from the shard's current backlog and mean
// decode time (at least one second).
func rejectSaturated(w http.ResponseWriter, shard engine.Shard) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shard)))
	httpError(w, http.StatusTooManyRequests, "decode queue saturated, retry later")
}

func retryAfterSeconds(shard engine.Shard) int {
	st := shard.Stats()
	if st.JobsCompleted == 0 {
		return 1
	}
	avg := st.TotalDecodeTime / time.Duration(st.JobsCompleted)
	workers := shard.Workers()
	if workers < 1 {
		workers = 1
	}
	est := avg * time.Duration(shard.QueueDepth()) / time.Duration(workers)
	secs := int(est / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// schemeRequest is the JSON body of POST /v1/schemes.
type schemeRequest struct {
	Design string  `json:"design"` // random-regular | bernoulli | constant-column
	N      int     `json:"n"`
	M      int     `json:"m"`
	Seed   uint64  `json:"seed"`
	Gamma  int     `json:"gamma,omitempty"`
	P      float64 `json:"p,omitempty"`
	D      int     `json:"d,omitempty"`
}

// handleCreateScheme registers a pooling scheme. JSON bodies describe a
// design by parameters; text/csv bodies upload an explicit design in the
// labio format (the WriteDesignCSV output). A design whose key is
// registered — its spec key, or an upload's GraphKey — answers its
// entry; anything else is built (or fetched from the owning shard's
// cache) or wrapped.
func (s *server) handleCreateScheme(w http.ResponseWriter, r *http.Request) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "text/csv") {
		g, err := labio.ReadDesign(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parse design csv: %v", err)
			return
		}
		ent, err := s.registerGraph(g, "uploaded")
		if err != nil {
			httpError(w, http.StatusInternalServerError, "journal scheme: %v", err)
			return
		}
		writeJSON(w, http.StatusCreated, s.placed(ent))
		return
	}
	var req schemeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	if req.N <= 0 || req.M < 0 {
		httpError(w, http.StatusBadRequest, "invalid size n=%d m=%d", req.N, req.M)
		return
	}
	params := engine.DesignParams{Gamma: req.Gamma, P: req.P, D: req.D}
	des, err := engine.DesignByName(req.Design, params)
	if err == nil {
		err = checkSpecSize(des, req.N, req.M)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if ent, ok := s.registered(engine.SpecFor(des, req.N, req.M, req.Seed).Key()); ok {
		writeJSON(w, http.StatusCreated, s.placed(ent))
		return
	}
	es, err := s.cluster.Scheme(des, req.N, req.M, req.Seed)
	if err != nil {
		// A build is a pure function of the request: if it fails, the
		// parameters are what is wrong.
		httpError(w, http.StatusBadRequest, "build scheme: %v", err)
		return
	}
	s.writeRegistered(w, es, walSchemeRef{
		Design: des.Name(), N: req.N, M: req.M, Seed: req.Seed,
		Gamma: req.Gamma, P: req.P, D: req.D,
	})
}

// writeRegistered registers es and answers 201 with its entry, or 500
// when its scheme record could not be journaled and nothing was
// registered.
func (s *server) writeRegistered(w http.ResponseWriter, es *engine.Scheme, ref walSchemeRef) {
	ent, err := s.register(es, ref)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "journal scheme: %v", err)
		return
	}
	writeJSON(w, http.StatusCreated, s.placed(ent))
}

// checkSpecSize refuses a parametric design too large to build: n or m
// above graph.MaxParsedDim, the cap uploads have, or a bound on its
// (entry, query) pairs above graph.MaxSpecPairs. The bound is Γ·m draws
// for random-regular, n·D for constant-column and every cell, n·m, for
// bernoulli. A Γ above MaxMultiplicity·n counts as that much:
// RandomRegular.Build refuses it before drawing, naming the
// multiplicity limit.
func checkSpecSize(des pooling.Design, n, m int) error {
	var a, b int
	switch d := des.(type) {
	case pooling.RandomRegular:
		a, b = d.GammaFor(n), m
		if (a-1)/graph.MaxMultiplicity >= n { // a > MaxMultiplicity·n, without overflow
			a = graph.MaxMultiplicity * n
		}
	case pooling.ConstantColumn:
		a, b = n, d.DFor(m)
	default:
		a, b = n, m
	}
	if hi, lo := bits.Mul64(uint64(a), uint64(b)); hi != 0 || lo > graph.MaxSpecPairs {
		return fmt.Errorf("%s design with n=%d m=%d may hold up to %d×%d pairs, over the pair budget of %d",
			des.Name(), n, m, a, b, graph.MaxSpecPairs)
	}
	if n > graph.MaxParsedDim || m > graph.MaxParsedDim {
		return fmt.Errorf("design size n=%d m=%d over the dimension limit %d", n, m, graph.MaxParsedDim)
	}
	return nil
}

// register assigns (or reuses) the entry for a scheme. Schemes are
// deduplicated by routing key, so repeated POSTs of a spec or uploads of
// one design return the same id. With a journal, the entry's scheme
// record is durable before the entry is visible; a record that cannot
// be written registers nothing.
func (s *server) register(es *engine.Scheme, ref walSchemeRef) (*schemeEntry, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if ent, ok := s.registered(es.RouteKey()); ok {
		return ent, nil
	}
	s.nextID++
	ent := newEntry(fmt.Sprintf("s%d", s.nextID), es, ref)
	if err := s.journalScheme(ent); err != nil {
		return nil, err
	}
	s.insert(ent)
	return ent, nil
}

// registerGraph registers an ad-hoc design, an upload or a -designs
// preload, under its GraphKey; design names it in the entry's ref.
func (s *server) registerGraph(g *graph.Bipartite, design string) (*schemeEntry, error) {
	key := engine.GraphKey(g)
	return s.register(s.cluster.SchemeFromGraph(g, key), walSchemeRef{Design: design, N: g.N(), M: g.M(), AdHoc: true})
}

// newEntry builds the registry entry id for scheme es, described by ref.
func newEntry(id string, es *engine.Scheme, ref walSchemeRef) *schemeEntry {
	return &schemeEntry{
		ID: id, Design: ref.Design, N: ref.N, M: ref.M, Seed: ref.Seed,
		AdHoc: ref.AdHoc, Gamma: ref.Gamma, P: ref.P, D: ref.D,
		scheme: es,
	}
}

// insert publishes ent and evicts the oldest entries beyond maxSchemes
// (their ids start returning 404), deleting their scheme records.
// Callers hold regMu.
func (s *server) insert(ent *schemeEntry) {
	var evicted []string
	s.mu.Lock()
	s.schemes[ent.ID] = ent
	s.order = append(s.order, ent.ID)
	s.byKey[ent.scheme.RouteKey()] = ent
	for len(s.schemes) > s.maxSchemes {
		oldest := s.order[0]
		s.order = s.order[1:]
		if old, ok := s.schemes[oldest]; ok {
			delete(s.schemes, oldest)
			// A journal written before uploads were deduplicated can
			// hold two ids for one key; the key keeps the newer one.
			if key := old.scheme.RouteKey(); s.byKey[key] == old {
				delete(s.byKey, key)
			}
			evicted = append(evicted, oldest)
		}
	}
	s.mu.Unlock()
	for _, id := range evicted {
		s.journal.RemoveScheme(id)
	}
}

// lookup returns the registry entry id.
func (s *server) lookup(id string) (*schemeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.schemes[id]
	return ent, ok
}

// registered returns the entry registered under a routing key.
func (s *server) registered(key string) (*schemeEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.byKey[key]
	return ent, ok
}

// placed is ent as served: a copy whose shard and owner come from one
// lookup of the live ring.
func (s *server) placed(ent *schemeEntry) schemeEntry {
	out := *ent
	out.Shard, out.Owner = s.cluster.Placement(ent.scheme.RouteKey())
	return out
}

func (s *server) handleGetScheme(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scheme %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.placed(ent))
}

// handleGetDesign streams the scheme's pooling design as a labio CSV file
// — the payload a pipetting robot (or LoadDesignCSV) consumes.
func (s *server) handleGetDesign(w http.ResponseWriter, r *http.Request) {
	ent, ok := s.lookup(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scheme %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	// Stream: designs can be large (uploads up to -max-body), so no
	// buffering. A mid-stream write error means the client went away —
	// the headers are sent, so there is no useful error body to produce.
	_ = labio.WriteDesign(w, ent.scheme.G)
}

// decodeRequest is the JSON body of POST /v1/decode. Exactly one of
// Counts (single job) or Batch (pipelined jobs) must be set. Noise
// declares the measurement model of the counts; when set and no decoder
// is named, the server selects the robust decoder for it.
type decodeRequest struct {
	Scheme  string       `json:"scheme"`
	K       int          `json:"k"`
	Decoder string       `json:"decoder,omitempty"`
	Noise   *noise.Model `json:"noise,omitempty"`
	Counts  []int64      `json:"counts,omitempty"`
	Batch   [][]int64    `json:"batch,omitempty"`
}

// parseJobSpec resolves a request's noise model and decoder choice —
// shared by the sync decode and campaign handlers so the two endpoints
// cannot drift. The model is validated as sent (validation must see the
// raw kind before canonicalization defaults it) and returned canonical.
// An empty decoder name yields nil so the noise policy selects the
// robust decoder server-side (MN for exact requests, as before).
func parseJobSpec(noisePtr *noise.Model, decName string) (noise.Model, decoder.Decoder, error) {
	var nm noise.Model
	if noisePtr != nil {
		nm = *noisePtr
	}
	if err := nm.Validate(); err != nil {
		return noise.Model{}, nil, err
	}
	nm = nm.Canon()
	var dec decoder.Decoder
	if decName != "" {
		var err error
		dec, err = engine.DecoderByName(decName)
		if err != nil {
			return noise.Model{}, nil, err
		}
	}
	return nm, dec, nil
}

// decodeResponse mirrors engine.Result on the wire. Decoder reports the
// algorithm that ran — the policy's pick when the request named none.
type decodeResponse struct {
	Support    []int  `json:"support"`
	Decoder    string `json:"decoder,omitempty"`
	Residual   int64  `json:"residual"`
	Consistent bool   `json:"consistent"`
	QueueNS    int64  `json:"queue_ns"`
	DecodeNS   int64  `json:"decode_ns"`
	TraceID    string `json:"trace_id,omitempty"`
}

func toResponse(res engine.Result) decodeResponse {
	return decodeResponse{
		Support:    res.Support,
		Decoder:    res.Decoder,
		Residual:   res.Stats.Residual,
		Consistent: res.Stats.Consistent,
		QueueNS:    int64(res.Stats.QueueWait),
		DecodeNS:   int64(res.Stats.DecodeTime),
		TraceID:    res.TraceID,
	}
}

// handleDecode runs reconstructions through the owning shard's pipeline.
// JSON bodies carry counts inline; text/csv bodies are labio results
// files (the WriteCountsCSV output) with scheme/k/decoder/noise in query
// parameters (noise in the compact colon form, e.g. noise=gaussian:0.5:7).
// A saturated shard queue rejects with 429 + Retry-After instead of
// blocking the request.
func (s *server) handleDecode(w http.ResponseWriter, r *http.Request) {
	reqStart := time.Now()
	var req decodeRequest
	if strings.HasPrefix(r.Header.Get("Content-Type"), "text/csv") {
		y, err := labio.ReadCounts(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "parse counts csv: %v", err)
			return
		}
		req.Scheme = r.URL.Query().Get("scheme")
		req.Decoder = r.URL.Query().Get("decoder")
		if ns := r.URL.Query().Get("noise"); ns != "" {
			nm, err := noise.Parse(ns)
			if err != nil {
				httpError(w, http.StatusBadRequest, "bad noise parameter: %v", err)
				return
			}
			req.Noise = &nm
		}
		k, err := strconv.Atoi(r.URL.Query().Get("k"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad k parameter: %v", err)
			return
		}
		req.K = k
		req.Counts = y
	} else if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}

	ent, ok := s.lookup(req.Scheme)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scheme %q", req.Scheme)
		return
	}
	nm, dec, err := parseJobSpec(req.Noise, req.Decoder)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	shard := s.cluster.Owner(ent.scheme)
	tid := traceFrom(r.Context())

	switch {
	case req.Counts != nil && req.Batch != nil:
		httpError(w, http.StatusBadRequest, "set either counts or batch, not both")
	case req.Counts != nil:
		job := engine.Job{Scheme: ent.scheme, Y: req.Counts, K: req.K, Noise: nm, Dec: dec, TraceID: tid}
		var tb *trace.Builder
		if s.traces != nil {
			// The handler owns this job's trace: the ingress span covers
			// body parse + scheme lookup, the engine or remote client
			// appends the queue/decode/wire spans, and the handler seals
			// and offers the tree once the future settles.
			tb = trace.NewBuilder(tid, "decode_request", trace.TierFrontend)
			tb.SetScheme(ent.scheme.RouteKey())
			tb.Span("ingress", trace.TierFrontend, 0, reqStart, time.Since(reqStart))
			job.Trace = tb
		}
		fut, err := s.cluster.TrySubmit(r.Context(), job)
		if errors.Is(err, engine.ErrSaturated) {
			s.traces.Finish(tb, err)
			rejectSaturated(w, shard)
			return
		}
		if err != nil {
			s.traces.Finish(tb, err)
			httpError(w, decodeStatus(err), "decode: %v", err)
			return
		}
		res, err := fut.Wait(r.Context())
		if err != nil {
			s.traces.Finish(tb, err)
			s.log.Warn("decode failed", "trace_id", tid, "scheme", req.Scheme, "err", err)
			httpError(w, decodeStatus(err), "decode: %v", err)
			return
		}
		s.traces.Finish(tb, nil)
		s.log.Info("decode",
			"trace_id", tid, "scheme", req.Scheme, "decoder", res.Decoder,
			"k", req.K, "consistent", res.Stats.Consistent,
			"queue_ns", int64(res.Stats.QueueWait), "decode_ns", int64(res.Stats.DecodeTime))
		writeJSON(w, http.StatusOK, toResponse(res))
	case req.Batch != nil:
		// Batch admission is a snapshot check: a full queue turns the whole
		// batch away before any job blocks the handler.
		if shard.Saturated() {
			shard.NoteRejected(len(req.Batch))
			rejectSaturated(w, shard)
			return
		}
		results, err := s.cluster.DecodeBatch(r.Context(), ent.scheme, req.Batch, req.K, engine.Job{Noise: nm, Dec: dec, TraceID: tid})
		if err != nil {
			s.log.Warn("decode batch failed", "trace_id", tid, "scheme", req.Scheme, "err", err)
			httpError(w, decodeStatus(err), "decode batch: %v", err)
			return
		}
		s.log.Info("decode batch",
			"trace_id", tid, "scheme", req.Scheme, "jobs", len(results), "k", req.K)
		out := make([]decodeResponse, len(results))
		for i, res := range results {
			out[i] = toResponse(res)
		}
		writeJSON(w, http.StatusOK, map[string]any{"results": out})
	default:
		httpError(w, http.StatusBadRequest, "no counts in request")
	}
}

// decodeStatus maps pipeline errors to HTTP statuses.
func decodeStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrClosed), errors.Is(err, remote.ErrWorkerUnavailable):
		// A dead remote worker is an infrastructure outage, not a problem
		// with the request.
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrSaturated):
		return http.StatusTooManyRequests
	default:
		return http.StatusUnprocessableEntity
	}
}

// campaignRequest is the JSON body of POST /v1/campaigns. Noise is the
// campaign-level measurement model, applied to every job of the batch.
// Tenant attributes the campaign for per-tenant quotas, fair dispatch,
// and the /v1/stats tenant gauges; empty means the "default" tenant.
type campaignRequest struct {
	Scheme  string       `json:"scheme"`
	K       int          `json:"k"`
	Tenant  string       `json:"tenant,omitempty"`
	Decoder string       `json:"decoder,omitempty"`
	Noise   *noise.Model `json:"noise,omitempty"`
	Batch   [][]int64    `json:"batch"`
}

// campaignCreated is the 202 body: enough to poll or stream.
type campaignCreated struct {
	ID     string       `json:"id"`
	Tenant string       `json:"tenant,omitempty"`
	Total  int          `json:"total"`
	State  string       `json:"state"`
	Noise  *noise.Model `json:"noise,omitempty"`
}

// handleCreateCampaign admits an async batch decode and returns its id
// immediately; the jobs fan out to the owning shard in the background.
func (s *server) handleCreateCampaign(w http.ResponseWriter, r *http.Request) {
	var req campaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	ent, ok := s.lookup(req.Scheme)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scheme %q", req.Scheme)
		return
	}
	nm, dec, err := parseJobSpec(req.Noise, req.Decoder)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Batch) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch")
		return
	}
	tid := traceFrom(r.Context())
	cp, err := s.campaigns.Create(campaign.Request{
		Scheme: ent.scheme, Batch: req.Batch, K: req.K,
		Tenant: req.Tenant, Noise: nm, Dec: dec, TraceID: tid,
		SchemeRef: ent.refJSON(),
	})
	switch {
	case errors.Is(err, engine.ErrSaturated):
		rejectSaturated(w, s.cluster.Owner(ent.scheme))
	case errors.Is(err, campaign.ErrTooManyCampaigns), errors.Is(err, campaign.ErrTenantQuota):
		// Same backlog-derived estimate as the saturated /v1/decode path:
		// the client should come back once the owning shard has drained,
		// not on a hard-coded one-second clock.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cluster.Owner(ent.scheme))))
		httpError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		httpError(w, http.StatusBadRequest, "%v", err)
	default:
		s.log.Info("campaign created",
			"trace_id", tid, "campaign", cp.ID(), "tenant", cp.Tenant(),
			"scheme", req.Scheme, "jobs", cp.Total(), "k", req.K)
		created := campaignCreated{ID: cp.ID(), Tenant: cp.Tenant(), Total: cp.Total(), State: string(campaign.Running)}
		if !nm.IsExact() {
			created.Noise = &nm
		}
		writeJSON(w, http.StatusAccepted, created)
	}
}

// handleGetCampaign reports campaign progress. ?wait=5s long-polls: the
// response returns as soon as the campaign finishes, or after the wait
// elapses with the then-current progress (capped at maxWait).
func (s *server) handleGetCampaign(w http.ResponseWriter, r *http.Request) {
	cp, ok := s.campaigns.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad wait parameter: %v", err)
			return
		}
		if wait > s.maxWait {
			wait = s.maxWait
		}
		writeJSON(w, http.StatusOK, cp.Wait(r.Context(), wait))
		return
	}
	writeJSON(w, http.StatusOK, cp.Progress())
}

func (s *server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.campaigns.List()})
}

// handleCancelCampaign cancels a campaign: queued jobs settle as
// canceled, in-flight decodes run out. The response is the progress at
// cancellation time.
func (s *server) handleCancelCampaign(w http.ResponseWriter, r *http.Request) {
	cp, ok := s.campaigns.Cancel(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown campaign %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, cp.Progress())
}

// campaignGauges are the campaign-store gauges of /v1/stats. The block
// is always present — a fresh server reports zeros, not absent keys —
// so dashboards can rely on the fields existing before the first
// campaign runs.
type campaignGauges struct {
	Active   int `json:"active"`
	Finished int `json:"finished"`
	Retained int `json:"retained"`
}

// statsResponse is the body of GET /v1/stats: the fleet-wide aggregate
// counters (their snake_case json tags, histograms merged bucket-wise,
// jobs_by_noise per-model counters) flattened at the top level for
// compatibility, the per-shard breakdown, and server-level fields.
type statsResponse struct {
	engine.Stats
	// SchemeLoad shadows the embedded Stats field of the same json name:
	// the same top-K hot-key rows, annotated with the ring member owning
	// each routing key right now — the pair an operator (or a rebalancer)
	// needs to see which worker a hot design lands on.
	SchemeLoad []schemeLoadRow     `json:"scheme_load,omitempty"`
	Shards     []engine.ShardStats `json:"shards"`
	// Members is the current consistent-hash-ring membership; the adds/
	// removes counters are lifetime runtime ring changes (joins and
	// drains — boot placement is not counted).
	Members           []string                        `json:"members"`
	MembershipAdds    uint64                          `json:"membership_adds"`
	MembershipRemoves uint64                          `json:"membership_removes"`
	Schemes           int                             `json:"schemes"`
	Campaigns         campaignGauges                  `json:"campaigns"`
	Tenants           map[string]campaign.TenantStats `json:"tenants"`
	CampaignsActive   int                             `json:"campaigns_active"`
	CampaignsFinished int                             `json:"campaigns_finished"`
	UptimeNS          int64                           `json:"uptime_ns"`
	AvgQueue          float64                         `json:"avg_queue_ms"`
	AvgDec            float64                         `json:"avg_decode_ms"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	cs := s.cluster.Stats()
	s.mu.Lock()
	n := len(s.schemes)
	s.mu.Unlock()
	active, finished := s.campaigns.Counts()
	resp := statsResponse{
		Stats:             cs.Total,
		Shards:            cs.Shards,
		Members:           cs.Members,
		MembershipAdds:    cs.MembershipAdds,
		MembershipRemoves: cs.MembershipRemoves,
		Schemes:           n,
		Campaigns: campaignGauges{
			Active: active, Finished: finished, Retained: active + finished,
		},
		// Always a map, even empty, so dashboards can key into it before
		// the first tenant submits.
		Tenants:         s.campaigns.Tenants(),
		CampaignsActive: active, CampaignsFinished: finished,
		UptimeNS: int64(time.Since(s.start)),
	}
	if cs.Total.JobsCompleted > 0 {
		resp.AvgQueue = float64(cs.Total.TotalQueueWait.Milliseconds()) / float64(cs.Total.JobsCompleted)
		resp.AvgDec = float64(cs.Total.TotalDecodeTime.Milliseconds()) / float64(cs.Total.JobsCompleted)
	}
	for _, row := range cs.Total.SchemeLoad {
		resp.SchemeLoad = append(resp.SchemeLoad, schemeLoadRow{
			SchemeLoad: row, Owner: s.cluster.OwnerID(row.Key),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// schemeLoadRow is one /v1/stats hot-key row: the engine's per-scheme
// load accounting plus the ring owner of the key.
type schemeLoadRow struct {
	engine.SchemeLoad
	Owner string `json:"owner,omitempty"`
}

// handleListTraces lists recently retained traces, newest first, as
// one-line summaries. Query parameters narrow the listing: ?tenant=,
// ?scheme= (routing key), ?min_ms= (at least this slow), ?error=true
// (failed jobs only), ?limit= (default 50).
func (s *server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusNotFound, "tracing disabled; start pooledd with -trace-sample or -trace-store")
		return
	}
	q := r.URL.Query()
	f := trace.Filter{Tenant: q.Get("tenant"), Scheme: q.Get("scheme")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			httpError(w, http.StatusBadRequest, "bad min_ms parameter %q", v)
			return
		}
		f.MinDur = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("error"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad error parameter %q", v)
			return
		}
		f.ErrorOnly = b
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit parameter %q", v)
			return
		}
		limit = n
	}
	recent := s.traces.Recent(f, limit)
	out := make([]traceSummary, len(recent))
	for i, tr := range recent {
		out[i] = traceSummary{
			ID: tr.ID, Tenant: tr.Tenant, Scheme: tr.Scheme,
			Start: tr.Start, DurMS: float64(tr.DurNS) / 1e6,
			Err: tr.Err, Retained: tr.Retained, Spans: len(tr.Spans),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces":  out,
		"sampler": s.traces.Stats(),
	})
}

// traceSummary is one GET /v1/traces row; the full span tree comes from
// GET /v1/traces/{id}.
type traceSummary struct {
	ID       string    `json:"id"`
	Tenant   string    `json:"tenant,omitempty"`
	Scheme   string    `json:"scheme,omitempty"`
	Start    time.Time `json:"start"`
	DurMS    float64   `json:"duration_ms"`
	Err      string    `json:"err,omitempty"`
	Retained string    `json:"retained,omitempty"`
	Spans    int       `json:"spans"`
}

// handleGetTrace returns one retained trace's full span tree.
func (s *server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusNotFound, "tracing disabled; start pooledd with -trace-sample or -trace-store")
		return
	}
	tr, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no retained trace %q (dropped by sampling, evicted, or never seen)", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

// Runtime worker membership. The endpoints exist only on a -workers
// frontend: with local shards the topology is sized at boot and there
// is nothing to register a worker into.

// workerRequest is the JSON body of POST /v1/workers.
type workerRequest struct {
	Addr string `json:"addr"`
}

// workerStatus is one row of GET /v1/workers: a ring member and its
// probe state.
type workerStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
}

// dialWorker builds the client of the worker at addr from the template.
func dialWorker(tmpl remote.Options, addr string) *remote.Shard {
	tmpl.Addr = addr
	return remote.New(tmpl)
}

// addWorker joins the worker at addr to the ring. A worker already on
// the ring is refused with ErrDuplicateShard before any client is built
// for it.
func (s *server) addWorker(addr string) error {
	return s.cluster.AddShard(addr, func() engine.Shard { return dialWorker(*s.workerOpts, addr) })
}

// removeWorker drains the worker at addr: out of the ring, then its
// client closed, which flushes the jobs queued on it to the worker.
func (s *server) removeWorker(addr string) error {
	sh, err := s.cluster.RemoveShard(addr)
	if err != nil {
		return err
	}
	sh.Close()
	return nil
}

func (s *server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	if s.workerOpts == nil {
		httpError(w, http.StatusBadRequest, "worker membership requires a -workers frontend")
		return
	}
	// One view: the rows and the member list come from the same ring.
	cs := s.cluster.Stats()
	rows := make([]workerStatus, len(cs.Shards))
	for i, sh := range cs.Shards {
		rows[i] = workerStatus{Addr: sh.ID, Healthy: sh.Healthy}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers": rows,
		"members": cs.Members,
	})
}

// handleAddWorker joins a `pooledd -worker` to the fleet at runtime:
// the new member takes its arcs on the ring, so the schemes keyed to
// them route to it from the next job on (the first decode there installs
// the design), and the campaign dispatcher starts offering it jobs
// immediately.
func (s *server) handleAddWorker(w http.ResponseWriter, r *http.Request) {
	if s.workerOpts == nil {
		httpError(w, http.StatusBadRequest, "worker membership requires a -workers frontend")
		return
	}
	var req workerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "parse request: %v", err)
		return
	}
	if req.Addr == "" {
		httpError(w, http.StatusBadRequest, "missing worker addr")
		return
	}
	if err := s.addWorker(req.Addr); err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	s.log.Info("worker registered", "trace_id", traceFrom(r.Context()), "addr", req.Addr)
	writeJSON(w, http.StatusCreated, map[string]any{
		"addr":    req.Addr,
		"members": s.cluster.MemberIDs(),
	})
}

// handleRemoveWorker drains a worker: its arcs move to the survivors,
// and queued jobs re-dispatch through the ring.
func (s *server) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	if s.workerOpts == nil {
		httpError(w, http.StatusBadRequest, "worker membership requires a -workers frontend")
		return
	}
	addr := r.PathValue("addr")
	err := s.removeWorker(addr)
	switch {
	case errors.Is(err, engine.ErrUnknownShard):
		httpError(w, http.StatusNotFound, "unknown worker %q", addr)
	case errors.Is(err, engine.ErrLastShard):
		httpError(w, http.StatusConflict, "cannot drain the last worker")
	case err != nil:
		httpError(w, http.StatusConflict, "%v", err)
	default:
		s.log.Info("worker drained", "trace_id", traceFrom(r.Context()), "addr", addr)
		writeJSON(w, http.StatusOK, map[string]any{"members": s.cluster.MemberIDs()})
	}
}
