package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// getTarget sends one GET per task, carrying the task number.
type getTarget struct {
	url string
	hc  *http.Client
}

func (g getTarget) prepare(*task) {}

func (g getTarget) issue(ctx context.Context, t *task, _ time.Time) []outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/?n=%d", g.url, t.n), nil)
	if err == nil {
		var resp *http.Response
		if resp, err = g.hc.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	return []outcome{{idx: t.idx[0], at: time.Now(), err: err}}
}

// A server that stalls one request delays every request due during the
// stall; timing from the due time must show that delay on the later
// requests too, not only on the stalled one.
func TestOpenLoopCountsStallOnLaterRequests(t *testing.T) {
	const (
		stall   = 300 * time.Millisecond
		spacing = 10 * time.Millisecond
		stalled = 5
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("n") == fmt.Sprint(stalled) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()

	due := make([]time.Duration, 40)
	for i := range due {
		due[i] = time.Duration(i) * spacing
	}
	mk := func(n, lane int) *task { return &task{n: n, idx: []uint64{uint64(n)}} }
	p := runOpen(context.Background(), getTarget{srv.URL, hc}, mk, due, 1, 1)

	if p.attempted != len(due) || p.failed != 0 {
		t.Fatalf("attempted %d failed %d: %v", p.attempted, p.failed, p.errs)
	}
	// One client settles tasks in order, so p.lat[n] is task n's latency.
	if p.lat[stalled] < ms(stall) {
		t.Fatalf("stalled request took %.1f ms, want ≥ %v", p.lat[stalled], stall)
	}
	// Task n is due (n-stalled)·spacing after the stalled one started and
	// can only start when the stall ends.
	delayed := 0
	for n := stalled + 1; n < len(due); n++ {
		waited := stall - time.Duration(n-stalled)*spacing
		if waited <= 0 {
			break
		}
		if p.lat[n] < ms(waited) {
			t.Errorf("task %d: %.1f ms from its due time, but it waited %v for the stall", n, p.lat[n], waited)
		}
		delayed++
	}
	if delayed < 20 || len(p.connWait) < delayed {
		t.Fatalf("%d delayed tasks, %d connection waits recorded", delayed, len(p.connWait))
	}
}
