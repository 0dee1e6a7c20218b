package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRecorderCountsEachJobOnce settles four jobs through a queue's
// tasks — a completed decode, a decoder failure, a failure before any
// decoder and a cancellation — and checks that each counts
// once under its outcome, and that only the two that reached a decoder
// enter the stage histograms and the load table.
func TestRecorderCountsEachJobOnce(t *testing.T) {
	g, _, y := testInstance(t, 60, 3, 30)
	job := Job{Scheme: NewSchemeAt(Spec{}, "k1", g, 0), Y: y, K: 3}
	const ms = time.Millisecond
	rec := NewRecorder()
	q := NewQueue(1, rec, nil, nil)
	for _, c := range []struct {
		res Result
		err error
	}{
		{Result{Decoder: "mn", Stats: JobStats{QueueWait: 3 * ms, DecodeTime: 5 * ms, Consistent: true}}, nil},
		{Result{Decoder: "mn", Stats: JobStats{QueueWait: 2 * ms, DecodeTime: 7 * ms}}, errors.New("decode: inconsistent")},
		{Result{Stats: JobStats{QueueWait: 4 * ms}}, errors.New("worker unavailable")},
		{Result{Stats: JobStats{QueueWait: 6 * ms}}, fmt.Errorf("dispatch: %w", context.Canceled)},
	} {
		fut, err := q.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		(<-q.Tasks()).Settle(c.res, c.err)
		if _, err := fut.Wait(context.Background()); !errors.Is(err, c.err) {
			t.Fatalf("future settled with %v, want %v", err, c.err)
		}
	}

	st := rec.Snapshot()
	if st.JobsCompleted != 1 || st.JobsFailed != 2 || st.JobsCanceled != 1 || st.Consistent != 1 {
		t.Fatalf("outcomes completed=%d failed=%d canceled=%d consistent=%d, want 1/2/1/1",
			st.JobsCompleted, st.JobsFailed, st.JobsCanceled, st.Consistent)
	}
	if st.TotalQueueWait != 3*ms || st.TotalDecodeTime != 5*ms {
		t.Fatalf("totals queue=%v decode=%v, want the completed job's 3ms/5ms", st.TotalQueueWait, st.TotalDecodeTime)
	}
	for name, c := range map[string]struct {
		hists map[string]LatencyHistogram
		key   string
		total time.Duration
	}{
		"decode":       {st.DecodeLatency, "mn", 12 * ms},
		"queue":        {st.QueueLatency, "mn", 5 * ms},
		"noise decode": {st.NoiseLatency, "exact", 12 * ms},
		"noise queue":  {st.NoiseQueueLatency, "exact", 5 * ms},
	} {
		if h := c.hists[c.key]; len(c.hists) != 1 || h.Count != 2 || time.Duration(h.TotalNS) != c.total {
			t.Errorf("%s histograms %+v, want 2 jobs totalling %v under %q", name, c.hists, c.total, c.key)
		}
	}
	if h := st.SettleLatency["mn"]; len(st.SettleLatency) != 1 || h.Count != 2 {
		t.Errorf("settle histograms %+v, want the 2 decoded jobs under mn", st.SettleLatency)
	}
	if st.JobsByNoise["exact"] != 2 {
		t.Errorf("jobs_by_noise %v, want exact: 2", st.JobsByNoise)
	}
	if len(st.SchemeLoad) != 1 || st.SchemeLoad[0].Key != "k1" || st.SchemeLoad[0].Jobs != 2 || st.SchemeLoad[0].DecodeNS != (12*ms).Nanoseconds() {
		t.Errorf("load table %+v, want k1 with 2 jobs and 12ms", st.SchemeLoad)
	}
}
