package trace

import (
	"hash/fnv"
	"sync"
	"time"
)

// Config sizes a Store and its tail sampler.
type Config struct {
	// Capacity bounds the retained-trace ring; <=0 means 1024. Memory
	// is O(Capacity · spans-per-trace) regardless of offered volume.
	Capacity int
	// SampleRate is the probability a non-tail trace (no error, not
	// slow) is retained, in [0, 1]. Sampling is deterministic per trace
	// id — the same id always samples the same way — so a retry or a
	// federated replica makes the same decision.
	SampleRate float64
	// SlowFactor sets the tail threshold: a trace slower than
	// SlowFactor × the rolling EWMA latency is always retained.
	// <=0 means 3.
	SlowFactor float64
	// MinWarm is the number of observations before the slow detector
	// arms (an empty EWMA would flag the first job ever seen).
	// <=0 means 64.
	MinWarm int
}

func (c Config) capacity() int {
	if c.Capacity <= 0 {
		return 1024
	}
	return c.Capacity
}

func (c Config) slowFactor() float64 {
	if c.SlowFactor <= 0 {
		return 3
	}
	return c.SlowFactor
}

func (c Config) minWarm() int {
	if c.MinWarm <= 0 {
		return 64
	}
	return c.MinWarm
}

// StoreStats snapshots the sampler's decision counters.
type StoreStats struct {
	Offered         uint64 `json:"offered"`
	RetainedError   uint64 `json:"retained_error"`
	RetainedSlow    uint64 `json:"retained_slow"`
	Sampled         uint64 `json:"sampled"`
	Dropped         uint64 `json:"dropped"`
	Stored          int    `json:"stored"`
	SlowThresholdNS int64  `json:"slow_threshold_ns"`
}

// Store is a bounded ring of retained traces with tail sampling:
// errored traces and traces slower than the rolling threshold are
// always kept, the rest are kept with probability SampleRate (decided
// by a hash of the trace id). Old traces are overwritten in FIFO order
// once the ring is full, so the store never grows past Capacity.
type Store struct {
	cfg      Config
	onRetain func(*Trace, string)

	mu      sync.Mutex
	ring    []*Trace
	next    int
	byID    map[string]int
	ewmaNS  float64
	obs     int
	offered uint64
	retErr  uint64
	retSlow uint64
	sampled uint64
	dropped uint64
}

// NewStore builds a store; the ring is allocated up front.
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:  cfg,
		ring: make([]*Trace, cfg.capacity()),
		byID: make(map[string]int, cfg.capacity()),
	}
}

// OnRetain registers a callback fired (outside the store lock) for
// every tail-retained trace — reason "error" or "slow", never
// "sampled" — the hook for the edge-limited slow-job log. Set it
// before the store sees traffic.
func (s *Store) OnRetain(fn func(tr *Trace, reason string)) {
	if s == nil {
		return
	}
	s.onRetain = fn
}

// sampleKeep is the deterministic sampling decision for a trace id:
// FNV-1a of the id, normalized to [0, 1), compared against rate.
func sampleKeep(id string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	// Top 53 bits → an exactly representable float in [0, 1).
	u := h.Sum64() >> 11
	return float64(u)/(1<<53) < rate
}

// Offer runs the tail sampler on a finished trace and retains it if it
// qualifies. It reports the decision and the retention reason
// ("error", "slow", "sampled", or "" when dropped). Nil-safe on both
// the store and the trace.
func (s *Store) Offer(tr *Trace) (retained bool, reason string) {
	if s == nil || tr == nil {
		return false, ""
	}
	s.mu.Lock()
	s.offered++
	// Threshold from the EWMA before folding this observation in, so
	// one slow job cannot raise the bar it is judged against.
	threshold := s.slowThresholdLocked()
	armed := s.obs >= s.cfg.minWarm()
	if s.obs == 0 {
		s.ewmaNS = float64(tr.DurNS)
	} else {
		s.ewmaNS += (float64(tr.DurNS) - s.ewmaNS) / 64
	}
	s.obs++

	switch {
	case tr.Err != "":
		reason = "error"
		s.retErr++
	case armed && tr.DurNS > threshold:
		reason = "slow"
		s.retSlow++
	case sampleKeep(tr.ID, s.cfg.SampleRate):
		reason = "sampled"
		s.sampled++
	default:
		s.dropped++
		s.mu.Unlock()
		return false, ""
	}
	tr.Retained = reason
	if old := s.ring[s.next]; old != nil {
		if i, ok := s.byID[old.ID]; ok && i == s.next {
			delete(s.byID, old.ID)
		}
	}
	s.ring[s.next] = tr
	s.byID[tr.ID] = s.next
	s.next = (s.next + 1) % len(s.ring)
	fn := s.onRetain
	s.mu.Unlock()

	if fn != nil && reason != "sampled" {
		fn(tr, reason)
	}
	return true, reason
}

// Finish seals tb, marks it errored when err is non-nil, and offers the
// trace to the sampler — the one way a builder's owner ends its trace.
// Nil-safe on the store and the builder; a builder already sealed
// offers nothing.
func (s *Store) Finish(tb *Builder, err error) {
	if s == nil || tb == nil {
		return
	}
	if err != nil {
		tb.SetError(err.Error())
	}
	s.Offer(tb.Finish())
}

// slowThresholdLocked returns the current tail threshold in
// nanoseconds (0 while the detector is warming up). Caller holds s.mu.
func (s *Store) slowThresholdLocked() int64 {
	if s.obs < s.cfg.minWarm() {
		return 0
	}
	return int64(s.ewmaNS * s.cfg.slowFactor())
}

// Get returns the retained trace with the given id.
func (s *Store) Get(id string) (*Trace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	tr := s.ring[i]
	if tr == nil || tr.ID != id {
		return nil, false
	}
	return tr, true
}

// Filter narrows a Recent listing. Zero values match everything.
type Filter struct {
	Tenant    string
	Scheme    string
	MinDur    time.Duration
	ErrorOnly bool
}

func (f Filter) match(tr *Trace) bool {
	if f.Tenant != "" && tr.Tenant != f.Tenant {
		return false
	}
	if f.Scheme != "" && tr.Scheme != f.Scheme {
		return false
	}
	if f.MinDur > 0 && tr.DurNS < f.MinDur.Nanoseconds() {
		return false
	}
	if f.ErrorOnly && tr.Err == "" {
		return false
	}
	return true
}

// Recent returns up to limit retained traces matching f, newest first.
// limit <= 0 means 50.
func (s *Store) Recent(f Filter, limit int) []*Trace {
	if s == nil {
		return nil
	}
	if limit <= 0 {
		limit = 50
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Trace, 0, limit)
	n := len(s.ring)
	for off := 1; off <= n && len(out) < limit; off++ {
		tr := s.ring[(s.next-off+n)%n]
		if tr == nil {
			continue
		}
		if f.match(tr) {
			out = append(out, tr)
		}
	}
	return out
}

// Len reports how many traces are retained right now.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Stats snapshots the sampler counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Offered:         s.offered,
		RetainedError:   s.retErr,
		RetainedSlow:    s.retSlow,
		Sampled:         s.sampled,
		Dropped:         s.dropped,
		Stored:          len(s.byID),
		SlowThresholdNS: s.slowThresholdLocked(),
	}
}
