package engine

import (
	"container/list"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"pooleddata/internal/graph"
	"pooleddata/internal/pooling"
)

// Spec identifies a pooling scheme for caching: two requests with equal
// specs receive the same immutable scheme. Design strings include the
// design's parameters, so RandomRegular{Gamma: 7} and the default never
// collide.
type Spec struct {
	Design string
	N, M   int
	Seed   uint64
}

// SpecFor derives the cache key of a design instance. The design value's
// fields are folded into the key, so differently-parameterized designs of
// the same family cache separately.
func SpecFor(des pooling.Design, n, m int, seed uint64) Spec {
	return Spec{Design: fmt.Sprintf("%s%+v", des.Name(), des), N: n, M: m, Seed: seed}
}

// Key is the canonical routing/identity string of a spec — the value
// hashed onto the consistent-hash ring, stable across processes and
// restarts.
func (sp Spec) Key() string {
	return fmt.Sprintf("%s|%d|%d|%d", sp.Design, sp.N, sp.M, sp.Seed)
}

// GraphKey is the content-addressed routing key of an ad-hoc design: an
// FNV-1a digest over the graph's full incidence in query order
// (dimensions, then per query its entries and multiplicities), streamed
// by the graph's visitor. Re-uploading byte-identical pool definitions
// yields the same key, so ad-hoc schemes land on the same shard across
// uploads and membership changes.
func GraphKey(g *graph.Bipartite) string {
	// FNV-1a over the uvarint bytes of every value, folded in place.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	put := func(v uint64) {
		for ; v >= 0x80; v >>= 7 {
			h = (h ^ (v&0x7f | 0x80)) * prime64
		}
		h = (h ^ v) * prime64
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	g.ForEachQuery(0, g.M(), func(_ int, ent, mul []int32) error {
		put(uint64(len(ent)))
		for p := range ent {
			put(uint64(ent[p]))
			put(uint64(mul[p]))
		}
		return nil
	})
	return "adhoc|" + strconv.FormatUint(h, 16)
}

// Scheme is a cached pooling design: the immutable bipartite graph every
// job against this design decodes on. Safe for concurrent use.
type Scheme struct {
	// Spec is the cache key; zero for ad-hoc schemes wrapped from a graph.
	Spec Spec
	// G is the pooling graph. Immutable after construction.
	G *graph.Bipartite

	// home is the index of the engine shard owning this scheme inside a
	// Cluster (0 for standalone engines). Set at construction, before the
	// scheme is published. It records where the scheme was created; ring
	// routing re-resolves the owner by key at submit time, so a stale
	// home after a membership change only affects fair-queue grouping,
	// never correctness.
	home int

	// key is the consistent-hash routing key: the spec key for parametric
	// schemes, a content hash for ad-hoc graphs, the frontend's install id
	// for schemes a worker installed. May be empty for ad-hoc schemes of
	// a standalone Engine; Cluster.Owner falls back to home for those.
	// Set before the scheme is published, so routing never races.
	key string

	extOnce sync.Once
	ext     any
}

// Home reports the cluster shard index this scheme was created on (0
// when the scheme came from a standalone Engine). With ring routing this
// is a creation-time snapshot used for fair-queue grouping and stats;
// ownership is re-resolved from RouteKey on every submit.
func (s *Scheme) Home() int { return s.home }

// RouteKey is the consistent-hash key the cluster routes this scheme by:
// the canonical spec key for parametric schemes, a content hash for
// ad-hoc uploads, the install id on a worker, or "" for ad-hoc schemes
// created outside a cluster (those fall back to their home index).
func (s *Scheme) RouteKey() string { return s.key }

// NewSchemeAt wraps a prebuilt graph as a scheme owned by cluster shard
// home and routed by key — the constructor alternative Shard
// implementations (the remote shard client) use so the schemes they hand
// out route back to them inside a Cluster. spec is zero for ad-hoc
// designs; key is spec.Key() for parametric schemes and the content hash
// for ad-hoc ones.
func NewSchemeAt(spec Spec, key string, g *graph.Bipartite, home int) *Scheme {
	return &Scheme{Spec: spec, G: g, home: home, key: key}
}

// Ext returns the caller-side wrapper attached to this scheme, creating
// it with make on first use. Front-ends (the public pooled.Engine) use it
// to keep cache hits pointer-identical across their own wrapper types;
// the wrapper's lifetime is tied to the cached scheme's.
func (s *Scheme) Ext(make func() any) any {
	s.extOnce.Do(func() { s.ext = make() })
	return s.ext
}

// cacheEntry is one cache slot. ready is closed when the build finished
// (successfully or not); goroutines that find an entry before that joined
// an in-flight build and wait instead of building again.
type cacheEntry struct {
	spec   Spec
	ready  chan struct{}
	scheme *Scheme
	err    error
}

func (en *cacheEntry) done() bool {
	select {
	case <-en.ready:
		return true
	default:
		return false
	}
}

// cache is an LRU scheme cache with build deduplication.
type cache struct {
	mu sync.Mutex
	// home is the shard index stamped on every scheme this cache
	// creates. Atomic: membership changes re-stamp it from the cluster
	// mutation path while builds read it concurrently.
	home    atomic.Int64
	cap     int
	bys     map[Spec]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry
	metrics *counters
}

func newCache(capacity int, metrics *counters) *cache {
	return &cache{cap: capacity, bys: make(map[Spec]*list.Element), lru: list.New(), metrics: metrics}
}

// get returns the scheme for spec, running build at most once per miss.
// Concurrent callers for the same spec share a single build; failed
// builds are not cached, so a later call retries.
func (c *cache) get(spec Spec, build func() (*graph.Bipartite, error)) (*Scheme, error) {
	c.mu.Lock()
	if el, ok := c.bys[spec]; ok {
		ent := el.Value.(*cacheEntry)
		c.lru.MoveToFront(el)
		if ent.done() {
			c.metrics.cacheHits.Add(1)
		} else {
			c.metrics.buildsDeduped.Add(1)
		}
		c.mu.Unlock()
		<-ent.ready
		return ent.scheme, ent.err
	}
	ent := &cacheEntry{spec: spec, ready: make(chan struct{})}
	el := c.lru.PushFront(ent)
	c.bys[spec] = el
	c.evictLocked()
	c.mu.Unlock()

	g, err := build()
	c.mu.Lock()
	if err != nil {
		ent.err = err
		c.metrics.buildFailures.Add(1)
		// Drop the failed entry (it may already have been evicted).
		if cur, ok := c.bys[spec]; ok && cur == el {
			delete(c.bys, spec)
			c.lru.Remove(el)
		}
	} else {
		ent.scheme = &Scheme{Spec: spec, G: g, home: int(c.home.Load()), key: spec.Key()}
		c.metrics.schemesBuilt.Add(1)
	}
	c.mu.Unlock()
	close(ent.ready)
	return ent.scheme, ent.err
}

// put installs a prebuilt graph under spec as a completed entry,
// replacing any existing entry for that spec (in-flight builds keep
// serving their waiters; the map simply points at the new entry). This
// is the warm-start path, so no build counters move.
func (c *cache) put(spec Spec, g *graph.Bipartite) *Scheme {
	ent := &cacheEntry{spec: spec, ready: make(chan struct{}), scheme: &Scheme{Spec: spec, G: g, home: int(c.home.Load()), key: spec.Key()}}
	close(ent.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.bys[spec]; ok {
		c.lru.Remove(el)
		delete(c.bys, spec)
	}
	c.bys[spec] = c.lru.PushFront(ent)
	c.evictLocked()
	return ent.scheme
}

// evictLocked trims the cache to capacity, oldest first, skipping entries
// whose build is still in flight (their waiters hold the entry anyway, so
// evicting them would only duplicate work).
func (c *cache) evictLocked() {
	for len(c.bys) > c.cap {
		victim := (*list.Element)(nil)
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			if el.Value.(*cacheEntry).done() {
				victim = el
				break
			}
		}
		if victim == nil {
			return // everything beyond capacity is still building
		}
		ent := victim.Value.(*cacheEntry)
		delete(c.bys, ent.spec)
		c.lru.Remove(victim)
		c.metrics.evictions.Add(1)
	}
}

// len reports the number of cached (or in-flight) schemes.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bys)
}
