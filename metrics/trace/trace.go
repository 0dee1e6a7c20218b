// Package trace is the span layer of the observability surface: a
// dependency-free sibling of pooleddata/metrics that records per-job
// span trees (ingress → admission → tenant queue → shard queue → wire →
// worker decode) into a bounded in-memory ring with tail sampling.
//
// The design mirrors the metrics registry's contract: every producer
// handle is nil-safe (a nil *Builder records nothing at zero cost), the
// store is bounded (a fixed ring of retained traces, O(1) per offer),
// and the hot path never blocks on a consumer — retention decisions are
// a hash, a float compare, and a ring slot under one short mutex.
//
// Spans carry offsets from the trace start rather than wall timestamps,
// so spans synthesized for the far side of a federation hop (the worker
// queue and decode time a job's result reports back) need no clock
// synchronization: the client lays them out inside the request window
// it measured locally.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Span tiers: which side of the federation hop a span was measured on.
const (
	TierFrontend = "frontend"
	TierWorker   = "worker"
)

// Span is one timed stage of a job, positioned relative to the trace
// start (StartNS is an offset, not a wall time).
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Tier    string `json:"tier,omitempty"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Err     string `json:"err,omitempty"`
}

// Trace is one finished span tree. Traces are immutable once built —
// the store hands out the same pointer to every reader.
type Trace struct {
	ID     string    `json:"id"`
	Tenant string    `json:"tenant,omitempty"`
	Scheme string    `json:"scheme,omitempty"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	Err    string    `json:"err,omitempty"`
	// Retained records why the tail sampler kept this trace: "error",
	// "slow", or "sampled".
	Retained string `json:"retained,omitempty"`
	Spans    []Span `json:"spans"`
}

// NewID returns a fresh 16-hex-char trace id (8 random bytes).
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant id keeps
		// the pipeline alive and is obvious in any trace listing.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// rootSpanID is the id of the span created by NewBuilder; children
// passing parent 0 are normalized to it.
const rootSpanID = 1

// Builder accumulates spans for one job. All methods are nil-safe:
// a nil *Builder records nothing, so call sites sprinkle spans
// unconditionally and pay only a pointer test when tracing is off.
//
// Ownership convention: whoever creates a Builder ends it with
// Store.Finish, which seals it and offers the result to the sampler;
// everyone else only appends spans.
// A Builder is safe for concurrent use — the campaign dispatcher, the
// engine worker, and the remote sender all touch the same builder.
type Builder struct {
	mu     sync.Mutex
	id     string
	tenant string
	scheme string
	errMsg string
	start  time.Time
	next   uint64
	spans  []Span
	done   bool
}

// NewBuilder starts a trace rooted at a span named rootName (tier as
// given) covering the whole trace. The root's duration is stamped at
// Finish.
func NewBuilder(id, rootName, tier string) *Builder {
	b := &Builder{id: id, start: time.Now(), next: rootSpanID + 1}
	b.spans = append(b.spans, Span{ID: rootSpanID, Name: rootName, Tier: tier})
	return b
}

// ID returns the trace id ("" on a nil builder).
func (b *Builder) ID() string {
	if b == nil {
		return ""
	}
	return b.id
}

// Root returns the root span's id, for use as a parent.
func (b *Builder) Root() uint64 {
	if b == nil {
		return 0
	}
	return rootSpanID
}

// SetTenant labels the trace with the submitting tenant.
func (b *Builder) SetTenant(t string) {
	if b == nil || t == "" {
		return
	}
	b.mu.Lock()
	b.tenant = t
	b.mu.Unlock()
}

// SetScheme labels the trace with the scheme routing key.
func (b *Builder) SetScheme(s string) {
	if b == nil || s == "" {
		return
	}
	b.mu.Lock()
	if b.scheme == "" {
		b.scheme = s
	}
	b.mu.Unlock()
}

// SetError marks the trace errored (tail-retained regardless of the
// sampling rate). The first non-empty message wins.
func (b *Builder) SetError(msg string) {
	if b == nil || msg == "" {
		return
	}
	b.mu.Lock()
	if b.errMsg == "" {
		b.errMsg = msg
	}
	b.mu.Unlock()
}

// Span appends a completed span covering [start, start+d), returning
// its id for use as a parent. A zero parent attaches to the root.
func (b *Builder) Span(name, tier string, parent uint64, start time.Time, d time.Duration) uint64 {
	if b == nil {
		return 0
	}
	return b.SpanAt(name, tier, parent, start.Sub(b.start).Nanoseconds(), d.Nanoseconds())
}

// SpanAt appends a completed span at an explicit offset from the trace
// start — the form used for spans synthesized on behalf of the far side
// of a federation hop, where only durations (not wall times) are known.
func (b *Builder) SpanAt(name, tier string, parent uint64, startNS, durNS int64) uint64 {
	if b == nil {
		return 0
	}
	if startNS < 0 {
		startNS = 0
	}
	if durNS < 0 {
		durNS = 0
	}
	if parent == 0 {
		parent = rootSpanID
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return 0
	}
	id := b.next
	b.next++
	b.spans = append(b.spans, Span{ID: id, Parent: parent, Name: name, Tier: tier, StartNS: startNS, DurNS: durNS})
	return id
}

// Finish seals the builder and returns the immutable trace, stamping
// the root span and trace duration as time-since-creation. The second
// and later calls return nil — only the owner's Finish produces a
// trace to offer.
func (b *Builder) Finish() *Trace {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.done {
		return nil
	}
	b.done = true
	dur := time.Since(b.start).Nanoseconds()
	if dur < 0 {
		dur = 0
	}
	spans := make([]Span, len(b.spans))
	copy(spans, b.spans)
	if spans[0].DurNS == 0 {
		spans[0].DurNS = dur
	}
	return &Trace{
		ID:     b.id,
		Tenant: b.tenant,
		Scheme: b.scheme,
		Start:  b.start,
		DurNS:  dur,
		Err:    b.errMsg,
		Spans:  spans,
	}
}
