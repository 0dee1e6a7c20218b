// Command pooledd serves the sharded reconstruction cluster over HTTP:
// cached pooling schemes partitioned across engine shards, pipelined
// decodes, async campaigns, and fleet-wide counters. It is the service
// form of the one-design/many-signals regime — a screening lab posts
// one design up front, then streams plates of counts at it; multiple
// labs coexist because each design lives on the shard that owns its
// spec hash, so one tenant's churn cannot evict another's scheme.
//
// It runs in two modes:
//
//   - Frontend (default): serves the public /v1 API. Shards are local
//     engines, or — with -workers — remote shard clients, one per
//     `pooledd -worker` process, so one frontend fans decode traffic
//     out across machines:
//
//     pooledd -addr :8080 -shards 4 -cache 16 -shard-workers 2 \
//     -designs lab-a.csv,lab-b.csv -wal-dir /var/lib/pooledd
//
//     pooledd -addr :8080 -workers node1:9090,node2:9090
//
//   - Worker (-worker): serves only the shard API (/shard/v1/...) that
//     frontends drive — scheme installs, decode frames and health —
//     plus its own /metrics:
//
//     pooledd -worker -addr :9090 -shards 2 -queue 64
//
// API (JSON unless noted; design/count payloads reuse the labio CSV
// formats of WriteDesignCSV/WriteCountsCSV):
//
//	POST   /v1/schemes             {"design":"random-regular","n":10000,"m":600,"seed":1}
//	                               or a labio design CSV (Content-Type: text/csv)
//	GET    /v1/schemes/{id}        scheme metadata, including the shard and worker
//	                               owning its key on the ring right now
//	GET    /v1/schemes/{id}/design the design as labio CSV (for the robot)
//	POST   /v1/decode              {"scheme":"s1","k":16,"decoder":"mn","counts":[...]}
//	                               or {"batch":[[...],[...]]} for pipelined decoding
//	                               or a labio counts CSV with ?scheme=s1&k=16&decoder=mn
//	                               an optional "noise" object ({"kind":"gaussian",
//	                               "sigma":0.5} or {"kind":"threshold","t":2}; CSV:
//	                               &noise=gaussian:0.5) declares the measurement model
//	                               and makes the server select the robust decoder
//	                               429 + Retry-After when the owning shard is saturated
//	POST   /v1/campaigns           {"scheme":"s1","k":16,"batch":[[...],...]} → 202 + id
//	                               + optional campaign-level "noise" object applied to
//	                               every job, and an optional "tenant" for per-tenant
//	                               quotas / weighted fair dispatch (429 + Retry-After
//	                               when the tenant's quota is exhausted)
//	GET    /v1/campaigns           all retained campaigns
//	GET    /v1/campaigns/{id}      progress + completed results; ?wait=5s long-polls
//	GET    /v1/campaigns/{id}/events  SSE stream of per-job settlements as they land,
//	                               resumable with Last-Event-ID (or ?after=N); one
//	                               terminal "done" event closes the stream; slow
//	                               clients are evicted rather than buffered
//	DELETE /v1/campaigns/{id}      cancel (queued jobs settle as canceled; streams
//	                               still receive every settlement plus the terminal
//	                               event)
//	GET    /v1/stats               fleet aggregate + per-shard breakdown (queue depth,
//	                               worker health/addr, cache hits, rejected jobs,
//	                               decode-latency histograms, jobs_by_noise per-model
//	                               counters, campaign gauges, per-tenant gauges with
//	                               decode-latency histograms, ring membership counters)
//	GET    /v1/workers             fleet membership: every ring member with its probe
//	                               health (-workers frontends only)
//	POST   /v1/workers             {"addr":"node3:9090"} registers a worker at runtime:
//	                               joins it to the consistent-hash ring; the schemes
//	                               keyed to its arcs route to it from the next job on,
//	                               and the first decode there installs each design
//	                               → 201 + member list
//	DELETE /v1/workers/{addr}      drains a worker: flushes its queue to it, removes it
//	                               from the ring, stops its health probe (409 for the
//	                               last worker). Only these two change the ring: a
//	                               worker that stops answering its probe stays a
//	                               member, and keys route around it while it is
//	                               unhealthy
//	GET    /metrics                Prometheus text exposition of the same surface
//	                               (served by both modes: frontend and -worker)
//
// Observability: every request gets a trace id at ingress (X-Request-ID
// or Trace-ID when the caller sets one, random otherwise), echoed in a
// Trace-ID response header, carried on the decode pipeline into results,
// campaign SSE events, and across the federation hop into worker logs.
// Logs are structured (log/slog); -log-format selects text or json.
// -debug-addr serves net/http/pprof on a separate listener.
//
// -wal-dir journals the scheme registry and every campaign: each
// registered scheme is written durably before its id is answered (an
// ad-hoc upload with its design), and a restart — graceful or not —
// brings the schemes back under their ids and replays the campaigns
// (docs/durability.md). -designs files are read at every boot and
// registered and journaled like uploads of the same CSV, so a file
// already journaled keeps its id. -gc-interval runs campaign GC on a
// ticker so an idle server releases finished campaigns (and their event
// logs) without waiting for the next request. -tenant-max-active and
// -tenant-max-queued set the per-tenant quotas; -tenant-weights sets
// weighted-fair-queuing dispatch weights (t1=3,t2=1).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/remote"
	"pooleddata/internal/wal"
	"pooleddata/metrics"
	"pooleddata/metrics/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workerMode := flag.Bool("worker", false, "serve only the shard worker API (the backend a -workers frontend drives)")
	workerAddrs := flag.String("workers", "", "comma-separated worker addresses (host:port); the frontend decodes on these pooledd -worker processes instead of local shards")
	workerTimeout := flag.Duration("worker-timeout", 0, "per-request deadline against remote workers (0: 60s)")
	shards := flag.Int("shards", 4, "engine shard count (each shard owns its cache and worker pool); with -workers, the shard count is the worker count")
	cache := flag.Int("cache", 16, "scheme cache capacity per shard (LRU; frontend mode only)")
	shardWorkers := flag.Int("shard-workers", 0, "decode workers per shard (0: GOMAXPROCS/shards)")
	queue := flag.Int("queue", 0, "decode queue depth per shard (0: 4x workers)")
	maxSchemes := flag.Int("max-schemes", 64, "max registered scheme ids (oldest dropped beyond)")
	maxBody := flag.Int64("max-body", 256<<20, "max request body bytes")
	designs := flag.String("designs", "", "comma-separated labio design CSVs to preload at boot")
	gcInterval := flag.Duration("gc-interval", time.Minute, "campaign GC ticker period (0 disables the ticker; request-path GC still runs)")
	tenantMaxActive := flag.Int("tenant-max-active", 0, "max active campaigns per tenant (0: unlimited)")
	tenantMaxQueued := flag.Int("tenant-max-queued", 0, "max unsettled campaign jobs per tenant (0: unlimited)")
	tenantWeights := flag.String("tenant-weights", "", "weighted fair queuing, e.g. t1=3,t2=1 (unlisted tenants weigh 1)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json (stderr)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty: disabled)")
	walDir := flag.String("wal-dir", "", "write-ahead-log directory: registered schemes and campaigns journal here and replay after a crash or restart (empty: memory-only; frontend mode only)")
	walFsync := flag.String("wal-fsync", "always", "WAL fsync policy: always (per record), off, or a duration like 250ms (batched interval sync)")
	traceSample := flag.Float64("trace-sample", 0, "baseline retention rate for job traces in [0,1]; errored and tail-slow jobs are always retained once tracing is on (frontend mode only)")
	traceStore := flag.Int("trace-store", 0, "retained-trace ring capacity; setting either -trace-sample or -trace-store enables tracing (0 with tracing on: 1024)")
	flag.Parse()

	if *shards < 1 {
		*shards = 1
	}
	logger, err := newLogger(*logFormat)
	exitOn(err)
	weights, err := parseWeights(*tenantWeights)
	exitOn(err)
	startDebugServer(*debugAddr, logger)

	if *workerMode {
		runWorker(*addr, *shards, *shardWorkers, *queue, *maxSchemes, *maxBody, logger)
		return
	}

	reg := metrics.NewRegistry()
	// The trace store exists before the cluster so local shards can offer
	// traces for bare /v1/decode jobs; campaign jobs and handler-owned
	// sync jobs bring their own builders and only flow through Offer.
	var traces *trace.Store
	if *traceSample > 0 || *traceStore > 0 {
		traces = trace.NewStore(trace.Config{Capacity: *traceStore, SampleRate: *traceSample})
		attachSlowTraceLog(traces, logger)
		logger.Info("job tracing enabled", "sample", *traceSample, "capacity", *traceStore)
	}
	var cluster *engine.Cluster
	var workerOpts *remote.Options
	if *workerAddrs != "" {
		addrs := splitList(*workerAddrs)
		if len(addrs) == 0 {
			exitOn(fmt.Errorf("-workers %q names no worker addresses", *workerAddrs))
		}
		workerOpts = &remote.Options{RequestTimeout: *workerTimeout, Metrics: reg, Logger: logger}
		shards := make([]engine.Shard, len(addrs))
		for i, a := range addrs {
			shards[i] = dialWorker(*workerOpts, a)
		}
		cluster = engine.NewClusterOf(shards...)
		logger.Info("fronting remote workers", "count", len(addrs), "addrs", strings.Join(addrs, ", "))
	} else {
		cluster = engine.NewCluster(engine.ClusterConfig{
			Shards: *shards,
			Shard: engine.Config{
				CacheCapacity: *cache,
				Workers:       *shardWorkers, // 0: NewCluster splits GOMAXPROCS across shards
				QueueDepth:    *queue,
				Traces:        traces,
			},
		})
	}
	defer cluster.Close()

	// The WAL opens before the server exists so registrations and
	// campaigns journal from the first request; recovery replays later
	// in boot.
	var journal *wal.WAL
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		exitOn(err)
		journal, err = wal.Open(*walDir, wal.Options{Sync: policy, Metrics: reg, Logger: logger})
		exitOn(err)
		logger.Info("wal enabled", "dir", *walDir, "fsync", policy.String())
	}

	srv := newServer(cluster, campaign.Config{
		TenantMaxActive: *tenantMaxActive,
		TenantMaxQueued: *tenantMaxQueued,
		TenantWeights:   weights,
		WAL:             journal,
		Traces:          traces,
	})
	srv.maxSchemes = *maxSchemes
	srv.maxBody = *maxBody
	srv.traces = traces
	srv.instrument(reg, logger)
	srv.workerOpts = workerOpts
	// Boot order: the journaled scheme registry under its ids, then the
	// -designs preloads (a journaled one answers its id), then the
	// campaigns that decode against them. An interior-corrupt file
	// refuses boot — a torn tail record does not.
	exitOn(replaySchemes(srv, os.Stderr))
	exitOn(preloadDesigns(srv, splitList(*designs), os.Stderr))
	exitOn(restoreCampaigns(srv, journal, os.Stderr))
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// Campaign GC used to run only opportunistically on request paths, so
	// an idle server retained finished campaigns (and now their event
	// logs) until the next submission. The ticker makes retention a real
	// upper bound; it also reaps stale canceled campaigns and wakes their
	// parked long-pollers with a terminal progress.
	if *gcInterval > 0 {
		go func() {
			tick := time.NewTicker(*gcInterval)
			defer tick.Stop()
			for range tick.C {
				srv.campaigns.GC(time.Now())
			}
		}()
	}
	done := serveUntilSignal(httpSrv)
	logger.Info("listening", "addr", *addr, "shards", cluster.Shards())
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		exitOn(err)
	}
	<-done
	// Stop the campaign dispatcher: jobs still awaiting dispatch settle
	// with a store-closed error instead of dangling. The store detaches
	// journals first, so those shutdown settles never reach the WAL and
	// unfinished campaigns resume on the next boot.
	srv.campaigns.Close()
	if err := journal.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "pooledd: wal close: %v\n", err)
	}
}

// runWorker serves only the shard API over a local engine cluster — the
// backend of a federated deployment. Schemes arrive from frontends
// (installed lazily before their first decode) and live in the install
// table -max-schemes bounds, never in the shard caches, so -cache,
// -designs and -wal-dir do not apply here.
func runWorker(addr string, shards, workers, queue int, maxSchemes int, maxBody int64, logger *slog.Logger) {
	cluster := engine.NewCluster(engine.ClusterConfig{
		Shards: shards,
		Shard: engine.Config{
			Workers:    workers,
			QueueDepth: queue,
		},
	})
	defer cluster.Close()
	reg := metrics.NewRegistry()
	engine.RegisterClusterMetrics(reg, cluster)
	ws := remote.NewServer(cluster, remote.ServerOptions{
		MaxSchemes: maxSchemes, MaxBody: maxBody,
		Logger: logger, Metrics: reg,
	})
	// The worker serves /metrics beside the shard API, so a Prometheus
	// fleet scrapes frontends and workers uniformly.
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	mux.Handle("/", ws.Handler())
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	done := serveUntilSignal(httpSrv)
	logger.Info("worker listening", "addr", addr,
		"shards", cluster.Shards(), "workers_per_shard", cluster.Shard(0).Workers())
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		exitOn(err)
	}
	<-done
}

// serveUntilSignal installs the SIGINT/SIGTERM graceful-shutdown hook
// and returns the channel closed once shutdown completed.
func serveUntilSignal(httpSrv *http.Server) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(sctx); err != nil {
			fmt.Fprintf(os.Stderr, "pooledd: shutdown: %v\n", err)
		}
	}()
	return done
}

// exitOn ends the process on a boot or serve error.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "pooledd: %v\n", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseWeights parses the -tenant-weights form "t1=3,t2=1".
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range splitList(s) {
		name, val, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q, want tenant=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q: want a positive integer", part)
		}
		out[name] = w
	}
	return out, nil
}
