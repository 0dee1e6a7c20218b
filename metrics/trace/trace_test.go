package trace

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkTrace(id string, dur time.Duration, errMsg string) *Trace {
	b := NewBuilder(id, "job", TierFrontend)
	b.SetTenant("t1")
	b.SetScheme("s1")
	if errMsg != "" {
		b.SetError(errMsg)
	}
	b.SpanAt("decode", TierWorker, 0, 0, dur.Nanoseconds())
	tr := b.Finish()
	// Tests drive the sampler with synthetic durations; the builder
	// stamped wall-clock elapsed, which is ~0 here.
	tr.DurNS = dur.Nanoseconds()
	return tr
}

func TestNilBuilderAndStoreAreNoOps(t *testing.T) {
	var b *Builder
	if id := b.ID(); id != "" {
		t.Fatalf("nil builder ID = %q", id)
	}
	b.SetTenant("x")
	b.SetScheme("y")
	b.SetError("boom")
	if got := b.Span("s", TierFrontend, 0, time.Now(), time.Second); got != 0 {
		t.Fatalf("nil builder Span = %d", got)
	}
	if tr := b.Finish(); tr != nil {
		t.Fatalf("nil builder Finish = %v", tr)
	}
	var s *Store
	if ok, _ := s.Offer(mkTrace("a", time.Millisecond, "")); ok {
		t.Fatal("nil store retained a trace")
	}
	if got := s.Recent(Filter{}, 10); got != nil {
		t.Fatalf("nil store Recent = %v", got)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("nil store Get hit")
	}
}

// TestStoreFinish: Finish is the owner's one call that ends a trace. A
// nil store or builder does nothing, an error retains the trace as
// "error", and a builder finished once offers nothing the second time.
func TestStoreFinish(t *testing.T) {
	var nilStore *Store
	nilStore.Finish(NewBuilder("a", "job", TierFrontend), errors.New("boom"))
	s := NewStore(Config{})
	s.Finish(nil, errors.New("boom"))
	if st := s.Stats(); st.Offered != 0 {
		t.Fatalf("a nil builder offered a trace: %+v", st)
	}

	b := NewBuilder("job-1", "job", TierFrontend)
	s.Finish(b, errors.New("decode: inconsistent"))
	tr, ok := s.Get("job-1")
	if !ok || tr.Retained != "error" || tr.Err != "decode: inconsistent" {
		t.Fatalf("errored trace = %+v (found %v), want retained as error", tr, ok)
	}
	s.Finish(b, nil)
	if st := s.Stats(); st.Offered != 1 {
		t.Fatalf("a second Finish offered again: %+v", st)
	}
}

func TestBuilderSpanTree(t *testing.T) {
	b := NewBuilder("abc", "ingress", TierFrontend)
	root := b.Root()
	q := b.SpanAt("shard_queue", TierFrontend, root, 10, 20)
	d := b.SpanAt("decode", TierWorker, q, 30, 40)
	if q == 0 || d == 0 || q == d {
		t.Fatalf("span ids q=%d d=%d", q, d)
	}
	tr := b.Finish()
	if tr == nil {
		t.Fatal("Finish returned nil")
	}
	if b.Finish() != nil {
		t.Fatal("second Finish returned a trace")
	}
	if b.SpanAt("late", TierFrontend, root, 0, 1) != 0 {
		t.Fatal("span accepted after Finish")
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans", len(tr.Spans))
	}
	if tr.Spans[0].ID != root || tr.Spans[0].Parent != 0 {
		t.Fatalf("root span = %+v", tr.Spans[0])
	}
	byID := map[uint64]Span{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	if byID[d].Parent != q || byID[q].Parent != root {
		t.Fatalf("parent links broken: %+v", tr.Spans)
	}
}

func TestTailSamplerRetainsErrorsAndSlow(t *testing.T) {
	s := NewStore(Config{Capacity: 64, SampleRate: 0, MinWarm: 8, SlowFactor: 3})
	// Warm the EWMA with uniform 1ms jobs.
	for i := 0; i < 32; i++ {
		if ok, _ := s.Offer(mkTrace(fmt.Sprintf("warm-%d", i), time.Millisecond, "")); ok {
			t.Fatalf("warm trace %d retained at rate 0", i)
		}
	}
	if ok, reason := s.Offer(mkTrace("err", time.Millisecond, "boom")); !ok || reason != "error" {
		t.Fatalf("errored trace: ok=%v reason=%q", ok, reason)
	}
	if ok, reason := s.Offer(mkTrace("slow", 50*time.Millisecond, "")); !ok || reason != "slow" {
		t.Fatalf("slow trace: ok=%v reason=%q", ok, reason)
	}
	st := s.Stats()
	if st.RetainedError != 1 || st.RetainedSlow != 1 || st.Sampled != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if tr, ok := s.Get("slow"); !ok || tr.Retained != "slow" {
		t.Fatalf("Get(slow) = %v %v", tr, ok)
	}
}

func TestSamplingIsDeterministicPerID(t *testing.T) {
	const n = 2000
	decide := func() map[string]bool {
		s := NewStore(Config{Capacity: n, SampleRate: 0.25, MinWarm: 1 << 30})
		kept := map[string]bool{}
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("trace-%d", i)
			ok, _ := s.Offer(mkTrace(id, time.Millisecond, ""))
			kept[id] = ok
		}
		return kept
	}
	a, b := decide(), decide()
	kept := 0
	for id, ka := range a {
		if b[id] != ka {
			t.Fatalf("sampling decision for %s differs across runs", id)
		}
		if ka {
			kept++
		}
	}
	// A quarter of 2000 ids, with generous slack for hash variance.
	if kept < n/8 || kept > n/2 {
		t.Fatalf("kept %d of %d at rate 0.25", kept, n)
	}
}

func TestRecentFiltersAndOrder(t *testing.T) {
	s := NewStore(Config{Capacity: 16, SampleRate: 1})
	for i := 0; i < 4; i++ {
		b := NewBuilder(fmt.Sprintf("id-%d", i), "job", TierFrontend)
		b.SetTenant(fmt.Sprintf("tenant-%d", i%2))
		b.SetScheme("s1")
		if i == 3 {
			b.SetError("boom")
		}
		tr := b.Finish()
		tr.DurNS = int64(i+1) * int64(time.Millisecond)
		s.Offer(tr)
	}
	recent := s.Recent(Filter{}, 0)
	if len(recent) != 4 || recent[0].ID != "id-3" || recent[3].ID != "id-0" {
		t.Fatalf("Recent order wrong: %v", ids(recent))
	}
	if got := s.Recent(Filter{Tenant: "tenant-1"}, 0); len(got) != 2 {
		t.Fatalf("tenant filter: %v", ids(got))
	}
	if got := s.Recent(Filter{ErrorOnly: true}, 0); len(got) != 1 || got[0].ID != "id-3" {
		t.Fatalf("error filter: %v", ids(got))
	}
	if got := s.Recent(Filter{MinDur: 3 * time.Millisecond}, 0); len(got) != 2 {
		t.Fatalf("min-dur filter: %v", ids(got))
	}
	if got := s.Recent(Filter{Scheme: "nope"}, 0); len(got) != 0 {
		t.Fatalf("scheme filter: %v", ids(got))
	}
}

func ids(trs []*Trace) []string {
	out := make([]string, len(trs))
	for i, tr := range trs {
		out[i] = tr.ID
	}
	return out
}

// TestStoreBoundedUnderHammer is the bounded-memory contract: 10k jobs
// offered at full sampling from several writers, with concurrent
// listing/get scrapes, never grow the store past its capacity (run
// under -race in CI).
func TestStoreBoundedUnderHammer(t *testing.T) {
	const (
		cap     = 128
		writers = 4
		jobs    = 10000
	)
	s := NewStore(Config{Capacity: cap, SampleRate: 1})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tr := range s.Recent(Filter{}, 50) {
					if got, ok := s.Get(tr.ID); ok && got.ID != tr.ID {
						t.Errorf("Get(%s) returned %s", tr.ID, got.ID)
						return
					}
				}
				if n := s.Len(); n > cap {
					t.Errorf("store grew to %d > cap %d", n, cap)
					return
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < jobs/writers; i++ {
				b := NewBuilder(fmt.Sprintf("w%d-%d", w, i), "job", TierFrontend)
				b.SpanAt("decode", TierWorker, 0, 0, int64(i))
				s.Offer(b.Finish())
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if n := s.Len(); n > cap {
		t.Fatalf("store holds %d > cap %d after hammer", n, cap)
	}
	st := s.Stats()
	if st.Offered != jobs {
		t.Fatalf("offered %d, want %d", st.Offered, jobs)
	}
	if st.Stored > cap {
		t.Fatalf("stats stored %d > cap %d", st.Stored, cap)
	}
}

func TestOnRetainFiresForTailOnly(t *testing.T) {
	s := NewStore(Config{Capacity: 8, SampleRate: 1, MinWarm: 4})
	var mu sync.Mutex
	var got []string
	s.OnRetain(func(tr *Trace, reason string) {
		mu.Lock()
		got = append(got, tr.ID+":"+reason)
		mu.Unlock()
	})
	s.Offer(mkTrace("ok", time.Millisecond, ""))
	s.Offer(mkTrace("bad", time.Millisecond, "boom"))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0] != "bad:error" {
		t.Fatalf("OnRetain fired %v", got)
	}
}
