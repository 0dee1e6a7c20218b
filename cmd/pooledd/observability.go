package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

// Per-request trace propagation: every request entering the public API
// gets a trace id at ingress — the caller's X-Request-ID (or an
// explicit Trace-ID) when present, a fresh random id otherwise. The id
// rides the request context into the decode pipeline (engine.Job
// carries it through settle into Result and campaign events) and across
// the federation hop to workers, so one grep over frontend logs, worker
// logs, and an SSE stream correlates a single job end to end. The
// response echoes it in a Trace-ID header.

// traceHeader is the canonical trace header, echoed on every response.
const traceHeader = "Trace-ID"

type traceCtxKey struct{}

// traceFrom returns the request's trace id, or "" outside the
// middleware (tests driving handlers directly).
func traceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceCtxKey{}).(string)
	return id
}

// withTrace is the ingress middleware: adopt the caller's id or mint
// one, stash it in the context, echo it on the response.
func withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(traceHeader)
		if id == "" {
			id = r.Header.Get("X-Request-ID")
		}
		if id == "" {
			id = trace.NewID()
		}
		w.Header().Set(traceHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, id)))
	})
}

// newLogger builds the process logger from the -log-format flag and
// installs it as the slog default, so packages that fall back to
// slog.Default() (the remote client's probe transitions, the worker
// server's decode logs) share the same sink and format.
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text", "":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("bad -log-format %q, want text or json", format)
	}
	l := slog.New(h)
	slog.SetDefault(l)
	return l, nil
}

// startDebugServer serves net/http/pprof on its own listener — opt-in
// via -debug-addr and deliberately separate from the public API so
// profiling endpoints are never exposed on the service port.
func startDebugServer(addr string, log *slog.Logger) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		log.Info("debug server listening", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			log.Error("debug server failed", "addr", addr, "err", err)
		}
	}()
}

// instrument attaches the metrics registry and logger to the server:
// the cluster and campaign-store collectors, the server-level gauges
// (registered schemes, uptime), and the SSE stream instruments. The
// registry may be nil (tests building a bare server) — every
// instrument is a no-op then.
func (s *server) instrument(reg *metrics.Registry, log *slog.Logger) {
	if log != nil {
		s.log = log
	}
	s.metrics = reg
	engine.RegisterClusterMetrics(reg, s.cluster)
	campaign.RegisterStoreMetrics(reg, s.campaigns)
	s.mSSEActive = reg.Gauge("pooled_sse_subscribers", "Campaign event streams currently connected.").With()
	s.mSSEStreams = reg.Counter("pooled_sse_streams_total", "Campaign event streams accepted.").With()
	s.mSSEEvictions = reg.Counter("pooled_sse_evictions_total", "Streams evicted by a slow-client write timeout or write error.").With()
	reg.OnGather(func(e *metrics.Exporter) {
		s.mu.Lock()
		n := len(s.schemes)
		s.mu.Unlock()
		e.Gauge("pooled_registered_schemes", "Scheme ids resident in the frontend registry.", float64(n))
		e.Gauge("pooled_uptime_seconds", "Seconds since process start.", time.Since(s.start).Seconds())
	})
	if ts := s.traces; ts != nil {
		reg.OnGather(func(e *metrics.Exporter) {
			st := ts.Stats()
			const retHelp = "Traces retained by the tail sampler, by reason."
			e.Counter("pooled_trace_offered_total", "Finished job traces offered to the tail sampler.", float64(st.Offered))
			e.Counter("pooled_trace_retained_total", retHelp, float64(st.RetainedError), "reason", "error")
			e.Counter("pooled_trace_retained_total", retHelp, float64(st.RetainedSlow), "reason", "slow")
			e.Counter("pooled_trace_retained_total", retHelp, float64(st.Sampled), "reason", "sampled")
			e.Counter("pooled_trace_dropped_total", "Traces the sampler declined to retain.", float64(st.Dropped))
			e.Gauge("pooled_trace_stored", "Traces resident in the bounded ring right now.", float64(st.Stored))
			e.Gauge("pooled_trace_slow_threshold_seconds", "Current tail-latency retention threshold (0 while warming up).", time.Duration(st.SlowThresholdNS).Seconds())
		})
	}
}

// slowTraceLogInterval edge-limits the tail-retention warn log: a
// wedged decoder failing every job must not turn the log into a
// per-job firehose — the trace store has the full population.
const slowTraceLogInterval = time.Second

// attachSlowTraceLog wires the trace store's tail-retention hook to a
// structured warn — one line per retained slow/errored job with the
// trace id to pull the full span tree, rate-limited to one per
// slowTraceLogInterval.
func attachSlowTraceLog(ts *trace.Store, log *slog.Logger) {
	if ts == nil || log == nil {
		return
	}
	var mu sync.Mutex
	var last time.Time
	ts.OnRetain(func(tr *trace.Trace, reason string) {
		mu.Lock()
		now := time.Now()
		if now.Sub(last) < slowTraceLogInterval {
			mu.Unlock()
			return
		}
		last = now
		mu.Unlock()
		log.Warn("job retained by tail sampler",
			"trace_id", tr.ID, "reason", reason, "tenant", tr.Tenant,
			"scheme", tr.Scheme, "total_ms", float64(tr.DurNS)/1e6,
			"err", tr.Err, "stages", stageBreakdown(tr))
	})
}

// stageBreakdown renders a trace's spans as "name=1.2ms ..." for the
// slow-job log line — enough to see where the time went without
// fetching the span tree.
func stageBreakdown(tr *trace.Trace) string {
	var b strings.Builder
	for i, sp := range tr.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.1fms", sp.Name, float64(sp.DurNS)/1e6)
	}
	return b.String()
}
