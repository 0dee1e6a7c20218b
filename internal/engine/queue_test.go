package engine

import (
	"context"
	"errors"
	"testing"
)

// TestQueueAdmission drives the three submit modes, an admit refusal and
// Close against a depth-1 queue that nothing drains, so it stays full:
// only TrySubmit's refusal counts as a rejection, a refused or closed
// submit moves no counter, and the task queued before Close is still
// received and settles once.
func TestQueueAdmission(t *testing.T) {
	g, _, y := testInstance(t, 60, 3, 30)
	sc := NewSchemeAt(Spec{}, "k1", g, 0)
	errRefused := errors.New("refused by the shard")
	const refusedTag = 99
	rec := NewRecorder()
	q := NewQueue(1, rec, func(job Job) error {
		if job.Tag == refusedTag {
			return errRefused
		}
		return nil
	}, nil)
	ctx := context.Background()
	counts := func() (submitted, rejected uint64) {
		st := rec.Snapshot()
		return st.JobsSubmitted, st.JobsRejected
	}

	settles := 0
	fut, err := q.Submit(ctx, Job{Scheme: sc, Y: y, K: 3, Tag: 1, OnDone: func(Result, error) { settles++ }})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Saturated() || q.QueueDepth() != 1 || q.QueueCapacity() != 1 {
		t.Fatalf("after one submit: saturated=%v depth=%d capacity=%d, want true/1/1", q.Saturated(), q.QueueDepth(), q.QueueCapacity())
	}
	job := Job{Scheme: sc, Y: y, K: 3}
	if _, err := q.TrySubmit(ctx, job); !errors.Is(err, ErrSaturated) {
		t.Fatalf("TrySubmit on a full queue: err = %v, want ErrSaturated", err)
	}
	if sub, rej := counts(); sub != 1 || rej != 1 {
		t.Fatalf("after TrySubmit: submitted=%d rejected=%d, want 1/1", sub, rej)
	}
	if _, err := q.Offer(ctx, job); !errors.Is(err, ErrSaturated) {
		t.Fatalf("Offer on a full queue: err = %v, want ErrSaturated", err)
	}
	if sub, rej := counts(); sub != 1 || rej != 1 {
		t.Fatalf("after Offer: submitted=%d rejected=%d, want 1/1", sub, rej)
	}
	refused := job
	refused.Tag = refusedTag
	if _, err := q.Submit(ctx, refused); !errors.Is(err, errRefused) {
		t.Fatalf("admit refusal: err = %v, want the admit error", err)
	}
	if sub, rej := counts(); sub != 1 || rej != 1 {
		t.Fatalf("after an admit refusal: submitted=%d rejected=%d, want 1/1", sub, rej)
	}

	if !q.Close() {
		t.Fatal("first Close reported the queue already closed")
	}
	if _, err := q.Submit(ctx, job); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	task, ok := <-q.Tasks()
	if !ok || task.Job.Tag != 1 {
		t.Fatalf("received task %+v (ok=%v), want the job queued before Close", task, ok)
	}
	if _, ok := <-q.Tasks(); ok {
		t.Fatal("a second task was queued")
	}
	task.Settle(Result{Decoder: "mn"}, nil)
	if res, err := fut.Wait(ctx); err != nil || res.Tag != 1 {
		t.Fatalf("future settled with tag %d, err %v; want tag 1, no error", res.Tag, err)
	}
	if st := rec.Snapshot(); settles != 1 || st.JobsCompleted != 1 {
		t.Fatalf("OnDone ran %d times, %d jobs completed; want 1 and 1", settles, st.JobsCompleted)
	}
	if q.Close() {
		t.Fatal("second Close reported closing the queue")
	}
}
