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
	g.ForEachQuery(func(_ int, ent, mul []int32) error {
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

	// key is the consistent-hash routing key and the design's identity
	// across the federation hop: the spec key for parametric schemes, a
	// content hash for ad-hoc graphs, the frontend's install id for
	// schemes a worker installed. May be empty for ad-hoc schemes of a
	// standalone Engine; Cluster.Owner falls back to home for those, and
	// a remote shard refuses them. Set before the scheme is published, so
	// routing never races.
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
// home and routed by key, for designs built outside any cache (the
// public package's pooled.New and LoadDesignCSV schemes). spec is zero
// for ad-hoc designs; key is spec.Key() for parametric schemes and the
// content hash for ad-hoc ones.
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

// Cache is an LRU scheme cache with build deduplication: every Engine
// keeps one, and so does each remote shard client, whose frontend
// builds the designs its worker decodes on. Safe for concurrent use.
type Cache struct {
	mu sync.Mutex
	// home is the shard index stamped on every scheme this cache
	// creates. Atomic: membership changes re-stamp it from the cluster
	// mutation path while builds read it concurrently.
	home    atomic.Int64
	cap     int
	bys     map[Spec]*list.Element
	lru     *list.List // front = most recently used; values are *cacheEntry
	metrics cacheCounters
}

// cacheCounters are the counters a Cache moves, added to its shard's
// Stats by AddCounters.
type cacheCounters struct {
	schemesBuilt, cacheHits, buildsDeduped, evictions, buildFailures atomic.Uint64
}

// NewCache returns an empty cache holding up to capacity schemes.
func NewCache(capacity int) *Cache {
	return &Cache{cap: capacity, bys: make(map[Spec]*list.Element), lru: list.New()}
}

// SetHome assigns the cluster shard index stamped on every scheme the
// cache creates from now on, so cluster routing (Scheme.Home) finds its
// way back. NewClusterOf calls it at assembly, before the shard hands
// out schemes, and every membership change re-stamps it.
func (c *Cache) SetHome(i int) { c.home.Store(int64(i)) }

// Scheme returns the cached scheme for (des, n, m, seed), building it at
// most once no matter how many goroutines ask concurrently. The returned
// scheme is shared: callers on a cache hit receive the identical pointer.
func (c *Cache) Scheme(des pooling.Design, n, m int, seed uint64) (*Scheme, error) {
	if des == nil {
		des = pooling.RandomRegular{}
	}
	return c.get(SpecFor(des, n, m, seed), func() (*graph.Bipartite, error) {
		return des.Build(n, m, pooling.BuildOptions{Seed: seed})
	})
}

// SchemeFromGraph wraps a prebuilt design (e.g. one uploaded as a labio
// CSV file) as a scheme routed by key, without caching it. A standalone
// engine may pass "": routing then falls back to the home shard.
func (c *Cache) SchemeFromGraph(g *graph.Bipartite, key string) *Scheme {
	return &Scheme{G: g, home: int(c.home.Load()), key: key}
}

// get returns the scheme for spec, running build at most once per miss.
// Concurrent callers for the same spec share a single build; failed
// builds are not cached, so a later call retries.
func (c *Cache) get(spec Spec, build func() (*graph.Bipartite, error)) (*Scheme, error) {
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

// evictLocked trims the cache to capacity, oldest first, skipping entries
// whose build is still in flight (their waiters hold the entry anyway, so
// evicting them would only duplicate work).
func (c *Cache) evictLocked() {
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

// AddCounters adds the counters the cache moves to st: builds, hits,
// dedups, evictions and failures. Engine and the remote shard client
// both add their cache's counters to their recorder's snapshot with it.
func (c *Cache) AddCounters(st *Stats) {
	m := &c.metrics
	st.SchemesBuilt += m.schemesBuilt.Load()
	st.CacheHits += m.cacheHits.Load()
	st.BuildsDeduped += m.buildsDeduped.Load()
	st.Evictions += m.evictions.Load()
	st.BuildFailures += m.buildFailures.Load()
}

// len reports the number of cached (or in-flight) schemes.
func (c *Cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bys)
}
