GO ?= go

.PHONY: all build vet test test-full race bench bench-module bench-noise bench-stream bench-remote bench-kernels bench-smoke fuzz-seeds metrics-lint crash-smoke elastic-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fast CI gate: -short skips the full figure sweeps, -race catches
# concurrency bugs in the engine/scheme paths.
test:
	$(GO) test -short -race ./...

# The full suite, including the slow sweeps (what the paper validation
# runs).
test-full:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every benchmark; sweeps are skipped by -short, the kernel
# and engine micro-benchmarks still run.
bench:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

# The end-to-end benchmark lives in its own module (bench/go.mod), which
# imports internal packages of this one; vet and short-test it so an API
# change that breaks `bash bench/run.sh` fails here.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short ./...

# The noise subsystem's acceptance benchmark: batched per-signal noise
# path vs the exact batched path at B=32. -short skips the σ-sweep
# sub-benchmark (the slow part).
bench-noise:
	$(GO) test -short -run '^$$' -bench 'BenchmarkNoisyBatchDecode' -benchtime 1x .

# The streaming subsystem's benchmark: B settled campaign jobs fanned
# out to S concurrent event-stream subscribers.
bench-stream:
	$(GO) test -short -run '^$$' -bench 'BenchmarkCampaignStreaming' -benchtime 1x ./internal/campaign

# The federation benchmark: one decode through a worker over httptest
# loopback (JSON + HTTP + client queue) vs the same decode on a local
# shard — the per-job wire overhead a deployment amortizes by batching.
bench-remote:
	$(GO) test -short -run '^$$' -bench 'BenchmarkRemoteShardDecode' -benchtime 100x ./internal/remote

# Machine-readable kernel numbers: the decode kernels (one scatter per
# signal in the batch path), the noisy batch path, design builds (home
# scale and a very sparse custom design) with graph assembly on its own,
# the remote/batched wire parity, and one worker scheme install at
# n=10^4, m=600, written as BENCH_kernels.json (name -> ns/op, B/op,
# allocs/op) for CI to archive and for regression tooling to diff.
bench-kernels:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/benchjson ./cmd/benchjson; \
	{ $(GO) test -short -run '^$$' -benchmem \
	    -bench 'BenchmarkNoisyBatchDecode|BenchmarkMNDecode|BenchmarkQueryExecute|BenchmarkOneDesignManySignals|BenchmarkTraceOverhead|BenchmarkDesignBuild' \
	    -benchtime 1x . ; \
	  $(GO) test -short -run '^$$' -benchmem -bench 'BenchmarkNew$$' -benchtime 5x ./internal/graph ; \
	  $(GO) test -short -run '^$$' -benchmem \
	    -bench 'BenchmarkRemoteShardDecode|BenchmarkSchemeInstall' -benchtime 20x ./internal/remote ; } \
	| tee /dev/stderr | $$tmp/benchjson > BENCH_kernels.json
	@echo "wrote BENCH_kernels.json"

# One -race iteration of every benchmark: catches data races that only
# the benchmark drivers exercise (burst submits, coalesced senders)
# without paying for a timed run.
bench-smoke:
	$(GO) test -short -race -run '^$$' -bench . -benchtime 1x ./...

# Replay the checked-in fuzz corpus seeds (no open-ended fuzzing): the
# frame and WAL-record parsers must handle every archived hostile input
# cleanly.
fuzz-seeds:
	$(GO) test -run 'Fuzz' ./internal/remote ./internal/wal

# Scrape a live frontend + worker pair and run both expositions through
# promcheck (the in-repo, dependency-free Prometheus text-format linter).
# Catches malformed escaping, non-cumulative buckets, and duplicate
# series before a real Prometheus ever sees them. The fleet is churned
# through the membership API first, so the ring/membership series are
# linted with real values, not just their zero forms. Tracing is on, and
# the decode's span tree is fetched back through /v1/traces/{id} to
# assert it covers both tiers of the federation hop.
metrics-lint:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/pooledd ./cmd/pooledd; \
	$(GO) build -o $$tmp/promcheck ./cmd/promcheck; \
	$$tmp/pooledd -worker -addr 127.0.0.1:19390 -shards 2 & wpid=$$!; \
	$$tmp/pooledd -worker -addr 127.0.0.1:19391 -shards 2 & w2pid=$$!; \
	$$tmp/pooledd -addr 127.0.0.1:19392 -workers 127.0.0.1:19390 -wal-dir $$tmp/wal -trace-sample 1 & fpid=$$!; \
	trap 'kill $$wpid $$w2pid $$fpid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	for i in $$(seq 1 50); do \
	  curl -sf http://127.0.0.1:19390/metrics >/dev/null && \
	  curl -sf http://127.0.0.1:19391/metrics >/dev/null && \
	  curl -sf http://127.0.0.1:19392/metrics >/dev/null && break; \
	  sleep 0.2; \
	done; \
	for i in $$(seq 1 50); do \
	  curl -sf http://127.0.0.1:19392/metrics | grep -q '^pooled_shard_healthy{.*} 1' && break; \
	  sleep 0.2; \
	done; \
	curl -sf -X POST http://127.0.0.1:19392/v1/schemes \
	  -d '{"design":"random-regular","n":400,"m":200,"seed":1}' >/dev/null; \
	curl -sf -X POST http://127.0.0.1:19392/v1/decode \
	  -d "{\"scheme\":\"s1\",\"k\":0,\"counts\":[$$(printf '0,%.0s' $$(seq 1 199))0]}" >$$tmp/decode.json; \
	tid=$$(sed -n 's/.*"trace_id":"\([^"]*\)".*/\1/p' $$tmp/decode.json); \
	test -n "$$tid" || { echo "metrics-lint: decode response carried no trace_id" >&2; exit 1; }; \
	curl -sf "http://127.0.0.1:19392/v1/traces/$$tid" >$$tmp/trace.json; \
	grep -q '"tier":"frontend"' $$tmp/trace.json || \
	  { echo "metrics-lint: trace $$tid has no frontend-tier span" >&2; exit 1; }; \
	grep -q '"tier":"worker"' $$tmp/trace.json || \
	  { echo "metrics-lint: trace $$tid has no worker-tier span" >&2; exit 1; }; \
	curl -sf -X POST http://127.0.0.1:19392/v1/workers \
	  -d '{"addr":"127.0.0.1:19391"}' >/dev/null; \
	curl -sf -X DELETE http://127.0.0.1:19392/v1/workers/127.0.0.1:19391 >/dev/null; \
	curl -sf http://127.0.0.1:19390/metrics | $$tmp/promcheck; \
	curl -sf http://127.0.0.1:19392/metrics | $$tmp/promcheck; \
	for i in $$(seq 1 20); do \
	  curl -sf http://127.0.0.1:19392/metrics >$$tmp/front.prom; \
	  grep -q '^pooled_scheme_load_jobs_total' $$tmp/front.prom && break; \
	  sleep 0.3; \
	done; \
	for series in pooled_wal_appends_total pooled_ring_members \
	  pooled_ring_changes_total pooled_jobs_redispatched_total \
	  pooled_scheme_migrations_total pooled_trace_offered_total \
	  pooled_trace_retained_total pooled_scheme_load_jobs_total; do \
	  grep -q "^$$series" $$tmp/front.prom || \
	    { echo "metrics-lint: $$series missing from frontend exposition" >&2; exit 1; }; \
	done; \
	grep -q '^pooled_ring_changes_total{op="add"} 1' $$tmp/front.prom || \
	  { echo "metrics-lint: ring add not counted after /v1/workers churn" >&2; exit 1; }; \
	grep -q '^pooled_ring_changes_total{op="remove"} 1' $$tmp/front.prom || \
	  { echo "metrics-lint: ring remove not counted after /v1/workers churn" >&2; exit 1; }; \
	echo "metrics-lint: worker and frontend expositions are clean"

# Crash-recovery end to end against a real binary: SIGKILL pooledd mid-
# campaign, restart it on the same -wal-dir, and assert the campaign
# completes with a contiguous, exactly-once event stream.
crash-smoke:
	sh scripts/crash-smoke.sh

# Elastic fleet end to end against real binaries: register a second
# worker mid-campaign over the membership API, SIGKILL the first, and
# assert zero failed jobs plus the membership churn in /v1/stats.
elastic-smoke:
	sh scripts/elastic-smoke.sh

clean:
	$(GO) clean ./...
