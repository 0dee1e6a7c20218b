package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/decoder"
	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/remote"
	"pooleddata/internal/wal"
	"pooleddata/metrics"
)

// The traced run replays a workload's open phase in-process, on the
// stack pooledd assembles, built only from exported constructors. Spans
// are recorded from the benchmark's own wrappers around each layer's
// API, never from inside the program:
//
//   - tracedShard decorates every engine.Shard: it times Submit,
//     TrySubmit and Offer, wraps Job.OnDone, and (where the shard decodes
//     in this process) swaps in a timedDecoder around the policy's pick;
//   - the federated worker's handler sits behind timing middleware;
//   - campaigns are created on a campaign.Store with a WAL and followed
//     through Campaign.EventsSince, as the SSE handler does.

// stamps are a job's instants inside one tier's shard.
type stamps struct {
	submitStart, submitEnd time.Time
	decStart, decEnd       time.Time
	doneStart              time.Time
	decoder                string
	handle                 *handleRec // the worker request that carried the job
}

// jobRec is one replayed job's timeline.
type jobRec struct {
	due, end               time.Time
	createStart, createEnd time.Time // campaign jobs
	front                  stamps    // the frontend's shard: a local engine or the remote client
	worker                 stamps    // the worker's engine shard (federated)
}

// handleRec is one request served by the worker's shard handler.
type handleRec struct{ start, end time.Time }

type handleKey struct{}

// tracer owns the records of the traced replay. The decorators write a
// record's fields from the goroutines that own each stage; they are read
// only after the whole stack has shut down.
type tracer struct {
	mu      sync.Mutex
	recs    map[string]*jobRec
	routes  map[string]int // worker requests by route
	creates samples        // campaign create calls, ms

	calls, offers, refused atomic.Int64
}

func newTracer() *tracer {
	return &tracer{recs: make(map[string]*jobRec), routes: make(map[string]int)}
}

// recKey identifies a job on both tiers: the trace id crosses the
// federation hop, and the tag is the job's index in its campaign.
func recKey(traceID string, tag int) string { return traceID + "/" + strconv.Itoa(tag) }

func (tr *tracer) add(key string, due time.Time) *jobRec {
	rec := &jobRec{due: due}
	tr.mu.Lock()
	tr.recs[key] = rec
	tr.mu.Unlock()
	return rec
}

func (tr *tracer) lookup(job engine.Job) *jobRec {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.recs[recKey(job.TraceID, job.Tag)]
}

// middleware times every decode request the worker handler serves.
func (tr *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := path.Base(r.URL.Path)
		if route != "decode" && route != "decode-batch" {
			next.ServeHTTP(w, r)
			return
		}
		hr := &handleRec{start: time.Now()}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), handleKey{}, hr)))
		hr.end = time.Now()
		tr.mu.Lock()
		tr.routes[route]++
		tr.mu.Unlock()
	})
}

// tracedShard decorates a shard with the tracer's timers.
type tracedShard struct {
	engine.Shard
	tr     *tracer
	worker bool // the worker tier's shard
	decode bool // the shard decodes in this process
}

// SetHome forwards cluster placement to the wrapped shard, which stamps
// it on the schemes it creates.
func (s *tracedShard) SetHome(i int) {
	if hs, ok := s.Shard.(engine.HomeSetter); ok {
		hs.SetHome(i)
	}
}

func (s *tracedShard) Submit(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, s.Shard.Submit, false)
}

func (s *tracedShard) TrySubmit(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, s.Shard.TrySubmit, false)
}

func (s *tracedShard) Offer(ctx context.Context, job engine.Job) (*engine.Future, error) {
	return s.submit(ctx, job, s.Shard.Offer, true)
}

func (s *tracedShard) submit(ctx context.Context, job engine.Job, fn func(context.Context, engine.Job) (*engine.Future, error), offer bool) (*engine.Future, error) {
	rec := s.tr.lookup(job)
	if rec == nil {
		return fn(ctx, job)
	}
	st := &rec.front
	if s.worker {
		st = &rec.worker
		st.handle, _ = ctx.Value(handleKey{}).(*handleRec)
	}
	if s.decode {
		job.Dec = &timedDecoder{inner: policyPick(job), st: st, tr: s.tr}
	}
	onDone := job.OnDone
	job.OnDone = func(res engine.Result, err error) {
		st.doneStart = time.Now()
		if onDone != nil {
			onDone(res, err)
		}
	}
	start := time.Now()
	fut, err := fn(ctx, job)
	end := time.Now()
	if offer {
		s.tr.offers.Add(1)
		if errors.Is(err, engine.ErrSaturated) {
			s.tr.refused.Add(1)
		}
	}
	if err == nil {
		st.submitStart, st.submitEnd = start, end
	}
	return fut, err
}

// policyPick is the decoder the engine would run for job: its explicit
// decoder, else the noise policy's pick, else MN.
func policyPick(job engine.Job) decoder.Decoder {
	if job.Dec != nil {
		return job.Dec
	}
	if nm := job.Noise.Canon(); !nm.IsExact() {
		return noise.SelectDecoder(nm, noise.SchemeParams{N: job.Scheme.G.N(), M: job.Scheme.G.M(), K: job.K})
	}
	return decoder.MN{}
}

// timedDecoder times the decoder it wraps and keeps its name, so results
// and the wire protocol see the wrapped decoder.
type timedDecoder struct {
	inner decoder.Decoder
	st    *stamps
	tr    *tracer
}

func (d *timedDecoder) Name() string { return d.inner.Name() }

func (d *timedDecoder) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	d.st.decStart = time.Now()
	v, err := d.inner.Decode(g, y, k)
	d.st.decEnd = time.Now()
	d.st.decoder = d.inner.Name()
	d.tr.calls.Add(1)
	return v, err
}

// stack is the in-process form of the workload's pooledd deployment:
// pooledd's default shard layout, with the federation hop over loopback
// HTTP to a remote.Server, or a campaign store journaling to a WAL.
type stack struct {
	w       workload
	tr      *tracer // nil for the untraced replay
	front   *engine.Cluster
	store   *campaign.Store
	schemes []*engine.Scheme
	closers []func()
}

// serverEngine sizes an engine shard as pooledd's default flags do.
func serverEngine() *engine.Engine {
	return engine.New(engine.Config{
		CacheCapacity: 16,
		Workers:       max(1, runtime.GOMAXPROCS(0)/serverShards),
	})
}

// localCluster is pooledd's default local cluster, each shard decorated
// when tr is set.
func localCluster(tr *tracer, worker bool) *engine.Cluster {
	shards := make([]engine.Shard, serverShards)
	for i := range shards {
		shards[i] = serverEngine()
		if tr != nil {
			shards[i] = &tracedShard{Shard: shards[i], tr: tr, worker: worker, decode: true}
		}
	}
	return engine.NewClusterOf(shards...)
}

func newStack(ctx context.Context, w workload, gen *jobGen, tr *tracer, dir string) (*stack, error) {
	s := &stack{w: w, tr: tr}
	// pooledd logs every decode; the replay pays the same formatting cost.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := metrics.NewRegistry()
	// Closers run last-in first-out, so each part is registered right
	// after the parts it depends on.
	switch {
	case w.federated:
		wc := localCluster(tr, true)
		s.closers = append(s.closers, wc.Close)
		var h http.Handler = remote.NewServer(wc, remote.ServerOptions{Logger: quiet, Metrics: reg}).Handler()
		if tr != nil {
			h = tr.middleware(h)
		}
		ts := httptest.NewServer(h)
		s.closers = append(s.closers, ts.Close)
		var rs engine.Shard = remote.New(remote.Options{Addr: ts.URL, Logger: quiet, Metrics: reg})
		if tr != nil {
			rs = &tracedShard{Shard: rs, tr: tr}
		}
		s.front = engine.NewClusterOf(rs)
		s.closers = append(s.closers, s.front.Close)
	case w.campaign:
		jnl, err := wal.Open(dir, wal.Options{Sync: wal.SyncPolicy{Mode: wal.SyncAlways}, Metrics: reg, Logger: quiet})
		if err != nil {
			return nil, err
		}
		// A scratch journal: nothing reads it after the replay.
		s.closers = append(s.closers, func() { _ = jnl.Close() })
		s.front = localCluster(tr, false)
		s.closers = append(s.closers, s.front.Close)
		s.store = campaign.NewStore(s.front, campaign.Config{WAL: jnl})
		s.closers = append(s.closers, s.store.Close)
	default:
		s.front = localCluster(tr, false)
		s.closers = append(s.closers, s.front.Close)
	}
	for d, seed := range gen.seeds {
		sc, err := s.front.Scheme(pooling.RandomRegular{}, benchN, benchM, seed)
		if err != nil {
			s.close()
			return nil, err
		}
		s.schemes = append(s.schemes, sc)
		// One decode per scheme, as in pooledd's set-up: it builds the
		// scheme's lazy state and, federated, installs it on the worker.
		idx := jobIndex(phaseSetup, 0, d)
		y := gen.counts(d, idx, gen.signal(idx))
		if _, err := s.front.Decode(ctx, engine.Job{Scheme: sc, Y: y, K: benchK, Noise: w.noise}); err != nil {
			s.close()
			return nil, fmt.Errorf("replay set-up decode: %w", err)
		}
	}
	return s, nil
}

// close shuts the stack down; afterwards every record is final.
func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

func (s *stack) prepare(*task) {}

func (s *stack) issue(ctx context.Context, t *task, due time.Time) []outcome {
	traced := s.tr != nil && t.phase == phaseOpen
	if s.w.campaign {
		return s.campaign(ctx, t, due, traced)
	}
	idx := t.idx[0]
	job := engine.Job{Scheme: s.schemes[t.design], Y: t.ys[0], K: benchK, Noise: s.w.noise, TraceID: "j" + strconv.FormatUint(idx, 10)}
	var rec *jobRec
	if traced {
		rec = s.tr.add(recKey(job.TraceID, 0), due)
	}
	res, err := func() (engine.Result, error) {
		fut, err := s.front.TrySubmit(ctx, job)
		if err != nil {
			return engine.Result{}, err
		}
		return fut.Wait(ctx)
	}()
	end := time.Now()
	if rec != nil {
		rec.end = end
	}
	return []outcome{{idx: idx, support: res.Support, at: end, err: err}}
}

// campaign creates a campaign and follows its event log the way the SSE
// handler does, timing each job when its result event is observed.
func (s *stack) campaign(ctx context.Context, t *task, due time.Time, traced bool) []outcome {
	id := "c" + strconv.FormatUint(t.idx[0], 10)
	recs := make([]*jobRec, len(t.idx))
	if traced {
		for i := range recs {
			recs[i] = s.tr.add(recKey(id, i), due)
		}
	}
	start := time.Now()
	cp, err := s.store.Create(campaign.Request{
		Scheme: s.schemes[t.design], Batch: t.ys, K: benchK,
		Tenant: tenant(t.design), Noise: s.w.noise, TraceID: id,
	})
	end := time.Now()
	outs := make([]outcome, len(t.idx))
	for i := range outs {
		outs[i] = outcome{idx: t.idx[i], err: err}
	}
	if err != nil {
		return outs
	}
	if traced {
		s.tr.mu.Lock()
		s.tr.creates = append(s.tr.creates, ms(end.Sub(start)))
		s.tr.mu.Unlock()
		for _, rec := range recs {
			rec.createStart, rec.createEnd = start, end
		}
	}
	var cursor int64
	for {
		evs, changed, sealed := cp.EventsSince(cursor)
		now := time.Now()
		for _, ev := range evs {
			cursor = ev.Seq
			if ev.Type != campaign.EventResult {
				continue
			}
			i := ev.Job.Index
			outs[i] = outcome{idx: t.idx[i], support: ev.Job.Support, at: now}
			if ev.Job.Error != "" {
				outs[i].err = errors.New(ev.Job.Error)
			}
			if recs[i] != nil {
				recs[i].end = now
			}
		}
		if sealed {
			return outs
		}
		select {
		case <-changed:
		case <-ctx.Done():
			for i := range outs {
				if outs[i].at.IsZero() {
					outs[i].err = ctx.Err()
				}
			}
			return outs
		}
	}
}

// segment is one stretch of a job's blocking path.
type segment struct {
	name       string
	start, end time.Time
}

// path lays a job's blocking path out as consecutive segments from its
// due time to its settlement. Each mark is clamped to the one before, so
// the segments tile the job exactly and their self times sum to its
// latency.
func (w workload) path(r *jobRec) []segment {
	type mark struct {
		name string // the segment that starts at this mark
		at   time.Time
	}
	var marks []mark
	switch {
	case w.federated:
		h := r.worker.handle
		if h == nil {
			return nil
		}
		marks = []mark{
			{"gen_wait", r.due}, {"submit", r.front.submitStart}, {"wire", r.front.submitEnd},
			{"worker_handle", h.start}, {"worker_submit", r.worker.submitStart},
			{"shard_queue", r.worker.submitEnd}, {"decode", r.worker.decStart},
			{"post_decode", r.worker.decEnd}, {"worker_handle", r.worker.doneStart},
			{"wire", h.end}, {"wake", r.front.doneStart},
		}
	case w.campaign:
		marks = []mark{
			{"gen_wait", r.due}, {"create", r.createStart}, {"tenant_queue", r.createEnd},
			{"submit", r.front.submitStart}, {"shard_queue", r.front.submitEnd},
			{"decode", r.front.decStart}, {"post_decode", r.front.decEnd},
			{"settle_to_event", r.front.doneStart},
		}
	default:
		marks = []mark{
			{"gen_wait", r.due}, {"submit", r.front.submitStart}, {"shard_queue", r.front.submitEnd},
			{"decode", r.front.decStart}, {"post_decode", r.front.decEnd}, {"wake", r.front.doneStart},
		}
	}
	at := make([]time.Time, len(marks)+1)
	at[len(marks)] = r.end
	prev := r.due
	for i, m := range marks {
		if m.at.IsZero() {
			return nil // the job never reached this stage
		}
		t := m.at
		if t.Before(prev) {
			t = prev
		}
		if t.After(r.end) {
			t = r.end
		}
		at[i], prev = t, t
	}
	segs := make([]segment, len(marks))
	for i, m := range marks {
		segs[i] = segment{m.name, at[i], at[i+1]}
	}
	return segs
}

// spanJSON is one span of a job's tree in the written trace. Offsets
// are from the job's due time; self time is the span minus its children.
type spanJSON struct {
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	SelfUS  float64 `json:"self_us"`
}

// parents nests the federated hop: the worker's handling sits inside the
// wire span, and the worker's engine stages inside the handling.
var parents = map[string]string{
	"worker_handle": "wire", "worker_submit": "worker_handle",
	"shard_queue": "worker_handle", "decode": "worker_handle", "post_decode": "worker_handle",
}

// spans turns a path into its span tree: one span per stage name,
// spanning its first to last segment, with the self time of its
// segments.
func (w workload) spans(r *jobRec, segs []segment) []spanJSON {
	byName := make(map[string]*spanJSON)
	var order []string
	for _, sg := range segs {
		sp, ok := byName[sg.name]
		start := float64(sg.start.Sub(r.due)) / 1e3
		dur := float64(sg.end.Sub(sg.start)) / 1e3
		if !ok {
			sp = &spanJSON{Name: sg.name, Parent: "job", StartUS: start}
			if p, nested := parents[sg.name]; nested && w.federated {
				sp.Parent = p
			}
			byName[sg.name] = sp
			order = append(order, sg.name)
		}
		sp.DurUS = start + dur - sp.StartUS
		sp.SelfUS += dur
	}
	out := []spanJSON{{Name: "job", DurUS: float64(r.end.Sub(r.due)) / 1e3}}
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// traceReport is the traced run's analysis: per-layer metrics plus the
// spans written out at exit.
type traceReport struct {
	metrics  map[string]metric
	stages   map[string]metric // the median job's self time per stage
	routes   map[string]int    // worker requests by route
	problems []string
	jobs     [][]spanJSON
}

// analyze reduces the records of a finished replay. Call it only after
// the stack has closed.
func (tr *tracer) analyze(w workload) traceReport {
	rep := traceReport{metrics: make(map[string]metric), stages: make(map[string]metric), routes: tr.routes}
	keys := make([]string, 0, len(tr.recs))
	for k := range tr.recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var job, submit, queue, post, rtt, handle, wire, dispatch, toEvent samples
	var selfByJob []map[string]float64 // per job: self time per stage, ms
	dec := make(map[string]samples)
	completed := 0
	for _, k := range keys {
		r := tr.recs[k]
		if r.end.IsZero() {
			continue
		}
		completed++
		segs := w.path(r)
		if segs == nil {
			rep.problems = append(rep.problems, fmt.Sprintf("trace: job %s has an incomplete timeline", k))
			continue
		}
		job = append(job, ms(r.end.Sub(r.due)))
		perStage := make(map[string]float64)
		for _, sg := range segs {
			perStage[sg.name] += ms(sg.end.Sub(sg.start))
		}
		selfByJob = append(selfByJob, perStage)
		rep.jobs = append(rep.jobs, w.spans(r, segs))
		eng := r.front
		if w.federated {
			eng = r.worker
			rtt = append(rtt, ms(r.front.doneStart.Sub(r.front.submitEnd)))
			handle = append(handle, ms(r.worker.handle.end.Sub(r.worker.handle.start)))
			wire = append(wire, perStage["wire"])
		}
		submit = append(submit, float64(r.front.submitEnd.Sub(r.front.submitStart))/1e3)
		queue = append(queue, perStage["shard_queue"])
		post = append(post, perStage["post_decode"]*1e3)
		dec[eng.decoder] = append(dec[eng.decoder], ms(eng.decEnd.Sub(eng.decStart)))
		if w.campaign {
			dispatch = append(dispatch, perStage["tenant_queue"])
			toEvent = append(toEvent, perStage["settle_to_event"])
		}
	}
	m := rep.metrics
	put := func(name, unit string, s samples, p float64) {
		m[name] = metric{Value: s.p(p), Unit: unit, N: len(s), P: p}
	}
	put("job.p50_ms", "ms", job, 50)
	put("engine.submit_p50_us", "us", submit, 50)
	put("engine.queue_p50_ms", "ms", queue, 50)
	put("engine.queue_p99_ms", "ms", queue, 99)
	put("engine.post_decode_p50_us", "us", post, 50)
	for _, name := range []string{"mn", "mn-refined"} {
		put("decoder."+name+".p50_ms", "ms", dec[name], 50)
		put("decoder."+name+".p99_ms", "ms", dec[name], 99)
	}
	m["decoder.calls"] = metric{Value: float64(tr.calls.Load()), Unit: "count"}
	if calls := int(tr.calls.Load()); calls != completed {
		rep.problems = append(rep.problems, fmt.Sprintf("trace: %d decoder calls for %d jobs", calls, completed))
	}
	put("remote.rtt_p50_ms", "ms", rtt, 50)
	put("remote.rtt_p99_ms", "ms", rtt, 99)
	put("remote.worker_handle_p50_ms", "ms", handle, 50)
	put("remote.wire_p50_ms", "ms", wire, 50)
	put("campaign.create_p50_ms", "ms", tr.creates, 50)
	put("campaign.dispatch_wait_p50_ms", "ms", dispatch, 50)
	put("campaign.dispatch_wait_p99_ms", "ms", dispatch, 99)
	put("campaign.settle_to_event_p50_ms", "ms", toEvent, 50)
	put("campaign.settle_to_event_p99_ms", "ms", toEvent, 99)
	offers := tr.offers.Load()
	m["campaign.offers"] = metric{Value: float64(offers), Unit: "count"}
	ratio := 0.0
	if offers > 0 {
		ratio = float64(tr.refused.Load()) / float64(offers)
	}
	m["campaign.offers_refused_ratio"] = metric{Value: ratio, Unit: "ratio", N: int(offers)}

	// Where the median job's time goes: the mean self time of each stage
	// over the jobs between the 40th and 60th latency percentile. The
	// stages tile every job, so these sum to about the median latency;
	// medians of each stage would not, since the stages' spreads differ.
	sorted := job.sorted()
	lo, hi := percentile(sorted, 40), percentile(sorted, 60)
	band := 0
	sums := make(map[string]float64)
	for i, v := range job {
		if v < lo || v > hi {
			continue
		}
		band++
		for name, s := range selfByJob[i] {
			sums[name] += s
		}
	}
	var total float64
	for name, s := range sums {
		rep.stages[name] = metric{Value: s / float64(band), Unit: "ms", N: band}
		total += s / float64(band)
	}
	if j := m["job.p50_ms"].Value; j > 0 {
		m["trace.path_sum_ratio"] = metric{Value: total / j, Unit: "ratio"}
	}
	return rep
}
