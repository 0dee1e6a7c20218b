package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// task is one arrival: a single decode, or a whole campaign. Its inputs
// are derived before its due time, so generating them never delays it.
type task struct {
	phase  uint64
	n      int // the task's number in its phase
	design int
	idx    []uint64  // job indices
	ys     [][]int64 // counts, one vector per job
	body   []byte    // the HTTP request body, for targets that speak HTTP
}

// taskMaker makes the n-th task of a phase, for a client of lane.
type taskMaker func(n, lane int) *task

// tasks makes a workload's tasks of one phase.
func tasks(w workload, gen *jobGen, phase uint64) taskMaker {
	return func(n, lane int) *task {
		t := &task{phase: phase, n: n, design: lane % w.designs()}
		for j := 0; j < w.jobsPerTask(); j++ {
			idx := jobIndex(phase, n, j)
			t.idx = append(t.idx, idx)
			t.ys = append(t.ys, gen.counts(t.design, idx, gen.signal(idx)))
		}
		return t
	}
}

// outcome is one job's settlement as the load generator saw it.
type outcome struct {
	idx     uint64
	support []int
	at      time.Time
	err     error
}

// target is the system a phase drives: pooledd over HTTP, or the
// in-process replay of the same stack.
type target interface {
	prepare(t *task)
	issue(ctx context.Context, t *task, due time.Time) []outcome
}

// phase holds one load phase's measurements.
type phase struct {
	mu        sync.Mutex
	lat       samples // per job, ms from its due time
	late      samples // ms the generator woke after a due time
	connWait  samples // ms a due task waited for a free connection
	attempted int
	failed    int
	errs      []string    // the first few failures
	at        []time.Time // settle time of each lat sample
	supports  map[uint64][]int
	designs   map[uint64]int
	start     time.Time
}

func newPhase() *phase {
	return &phase{supports: make(map[uint64][]int), designs: make(map[uint64]int)}
}

func (p *phase) record(t *task, due time.Time, outs []outcome) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range outs {
		p.designs[o.idx] = t.design
		p.attempted++
		if o.err != nil {
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, o.err.Error())
			}
			continue
		}
		p.lat = append(p.lat, ms(o.at.Sub(due)))
		p.at = append(p.at, o.at)
		p.supports[o.idx] = o.support
	}
}

// windows returns the latencies of the jobs settled in each of k
// consecutive windows of length step from the phase start. Jobs settled
// later fall in no window.
func (p *phase) windows(step time.Duration, k int) []samples {
	out := make([]samples, k)
	for i, at := range p.at {
		if w := int(at.Sub(p.start) / step); w >= 0 && w < k {
			out[w] = append(out[w], p.lat[i])
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOpen sends tasks at their due offsets from now (an open loop), with
// clients concurrent senders. Task i belongs to lane i mod lanes and is
// sent by a client of that lane; a due task whose clients are all busy
// waits, and that wait counts in its latency, which runs from the due
// time — a stalled server cannot hide its queue by slowing the client.
func runOpen(ctx context.Context, tg target, mk taskMaker, due []time.Duration, clients, lanes int) *phase {
	p := newPhase()
	p.start = time.Now()
	next := make([]atomic.Int64, lanes)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		lane := c % lanes
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := lane + lanes*int(next[lane].Add(1)-1)
				if n >= len(due) {
					return
				}
				t := mk(n, lane)
				tg.prepare(t)
				at := p.start.Add(due[n])
				if wait := time.Until(at); wait > 0 {
					if !sleepCtx(ctx, wait) {
						return
					}
					p.mu.Lock()
					p.late = append(p.late, ms(time.Since(at)))
					p.mu.Unlock()
				} else {
					p.mu.Lock()
					p.connWait = append(p.connWait, ms(-wait))
					p.mu.Unlock()
				}
				p.record(t, at, tg.issue(ctx, t, at))
			}
		}()
	}
	wg.Wait()
	return p
}

// runClosed runs clients senders that each send their next task as soon
// as the previous one settled, until d has passed. Client c uses lane
// c mod lanes.
func runClosed(ctx context.Context, tg target, mk taskMaker, d time.Duration, clients, lanes int) *phase {
	p := newPhase()
	p.start = time.Now()
	end := p.start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		lane := c % lanes
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				t := mk(int(next.Add(1)-1), lane)
				tg.prepare(t)
				at := time.Now()
				p.record(t, at, tg.issue(ctx, t, at))
			}
		}()
	}
	wg.Wait()
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// httpTarget drives a pooledd frontend over HTTP through at most conns
// connections, SSE streams included.
type httpTarget struct {
	hc      *http.Client
	base    string
	w       workload
	schemes []string // scheme id per design
	// Client-side counters for the per-layer report.
	reqBytes  atomic.Int64
	sseEvents atomic.Int64
}

func newHTTPTarget(base string, w workload, conns int) *httpTarget {
	return &httpTarget{
		hc: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		base: base,
		w:    w,
	}
}

func (h *httpTarget) close() { h.hc.CloseIdleConnections() }

// prepare encodes the request body by hand: encoding/json costs several
// times more on 600-count vectors, and the generator shares the CPUs
// with the server.
func (h *httpTarget) prepare(t *task) {
	b := make([]byte, 0, 64+len(t.ys)*len(t.ys[0])*4)
	b = append(b, `{"scheme":"`...)
	b = append(b, h.schemes[t.design]...)
	b = append(b, `","k":`...)
	b = strconv.AppendInt(b, benchK, 10)
	if !h.w.noise.IsExact() {
		b = append(b, `,"noise":{"kind":"gaussian","sigma":`...)
		b = strconv.AppendFloat(b, h.w.noise.Sigma, 'g', -1, 64)
		b = append(b, '}')
	}
	if h.w.campaign {
		b = append(b, `,"tenant":"`...)
		b = append(b, tenant(t.design)...)
		b = append(b, `","batch":[`...)
		for i, y := range t.ys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInts(b, y)
		}
		b = append(b, ']')
	} else {
		b = append(b, `,"counts":`...)
		b = appendInts(b, t.ys[0])
	}
	t.body = append(b, '}')
}

func appendInts(b []byte, xs []int64) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, x, 10)
	}
	return append(b, ']')
}

func (h *httpTarget) issue(ctx context.Context, t *task, _ time.Time) []outcome {
	h.reqBytes.Add(int64(len(t.body)))
	if h.w.campaign {
		return h.campaign(ctx, t)
	}
	var res struct {
		Support []int `json:"support"`
	}
	err := h.post(ctx, "/v1/decode", t.body, http.StatusOK, &res)
	return []outcome{{idx: t.idx[0], support: res.Support, at: time.Now(), err: err}}
}

// post sends body and decodes a want-status JSON answer into out.
func (h *httpTarget) post(ctx context.Context, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// campaign creates a campaign and follows its SSE stream to the done
// event. A job's outcome is timed when its result event arrives.
func (h *httpTarget) campaign(ctx context.Context, t *task) []outcome {
	fail := func(err error) []outcome {
		outs := make([]outcome, len(t.idx))
		for i, idx := range t.idx {
			outs[i] = outcome{idx: idx, err: err}
		}
		return outs
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := h.post(ctx, "/v1/campaigns", t.body, http.StatusAccepted, &created); err != nil {
		return fail(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+"/v1/campaigns/"+created.ID+"/events", nil)
	if err != nil {
		return fail(err)
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("GET events of %s: %d", created.ID, resp.StatusCode))
	}
	got := make([]*outcome, len(t.idx))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			event = v
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		h.sseEvents.Add(1)
		if event == "done" {
			break
		}
		var jr struct {
			Index   int    `json:"index"`
			Support []int  `json:"support"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal([]byte(data), &jr); err != nil || jr.Index < 0 || jr.Index >= len(got) {
			return fail(fmt.Errorf("bad result event %q: %v", data, err))
		}
		o := &outcome{idx: t.idx[jr.Index], support: jr.Support, at: time.Now()}
		if jr.Error != "" {
			o.err = fmt.Errorf("campaign %s job %d: %s", created.ID, jr.Index, jr.Error)
		}
		got[jr.Index] = o
	}
	outs := make([]outcome, len(got))
	for i, o := range got {
		if o == nil {
			outs[i] = outcome{idx: t.idx[i], err: fmt.Errorf("campaign %s: no result for job %d (%v)", created.ID, i, sc.Err())}
			continue
		}
		outs[i] = *o
	}
	return outs
}
