package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
)

// Shard is one shard of the reconstruction fleet: the surface campaign
// dispatch, the pooledd front-end, and the cluster router need from a
// scheme-cache-plus-decode-pipeline, whether it runs in this process or
// on another machine. *Engine implements it in-process; internal/remote
// implements it over HTTP against a `pooledd -worker`, so a Cluster
// composes local and remote shards transparently — Job.Tag/OnDone
// fan-out, noise-model decoder selection, and ErrSaturated backpressure
// all work unchanged across the boundary.
type Shard interface {
	// Scheme returns the shard's cached scheme for the design instance,
	// building it at most once per spec.
	Scheme(des pooling.Design, n, m int, seed uint64) (*Scheme, error)
	// SchemeFromGraph wraps a prebuilt ad-hoc design (an uploaded labio
	// CSV) as a scheme owned by this shard, routed by key: the content
	// hash (GraphKey) the cluster placed it by, or a worker's install id.
	SchemeFromGraph(g *graph.Bipartite, key string) *Scheme

	// Submit enqueues a decode job, blocking while the queue is full.
	// TrySubmit and Offer are its admission-controlled forms: a full
	// queue returns ErrSaturated immediately, with (TrySubmit) and
	// without (Offer) the rejection accounting.
	Submit(ctx context.Context, job Job) (*Future, error)
	TrySubmit(ctx context.Context, job Job) (*Future, error)
	Offer(ctx context.Context, job Job) (*Future, error)

	// MeasureBatch evaluates the signals against the scheme under the
	// noise model (zero model: exact counts).
	MeasureBatch(s *Scheme, signals []*bitvec.Vector, nm noise.Model) [][]int64

	// Saturated reports whether the decode queue is full right now — the
	// batch admission-control signal. NoteRejected records rejections a
	// caller decided on that signal.
	Saturated() bool
	NoteRejected(n int)

	// Live gauges for stats and admission heuristics.
	QueueDepth() int
	QueueCapacity() int
	Workers() int
	CachedSchemes() int

	// Healthy reports whether the shard can take work — always true for
	// local shards; remote shards report their probe state. Addr is the
	// shard's remote address, empty for local shards.
	Healthy() bool
	Addr() string

	Stats() Stats
	Close()
}

// HomeSetter is implemented by shards that stamp an owning-shard index
// on the schemes they create (both *Engine and the remote client do).
// The cluster calls it with each shard's position on every membership
// change so Scheme.Home (fair-queue grouping, stats) tracks the current
// view for newly created schemes.
type HomeSetter interface{ SetHome(i int) }

// ErrShardUnavailable marks a job settlement caused by the owning shard
// being unreachable rather than by the job itself — the remote client's
// ErrWorkerUnavailable wraps it. The campaign dispatcher matches it with
// errors.Is to re-dispatch the orphaned job to a surviving shard instead
// of failing the campaign.
var ErrShardUnavailable = errors.New("engine: shard unavailable")

// ErrLastShard is returned by RemoveShard when removal would leave the
// cluster with no members.
var ErrLastShard = errors.New("engine: cannot remove the last shard")

// ErrUnknownShard is returned by RemoveShard for an ID not in the
// current membership.
var ErrUnknownShard = errors.New("engine: unknown shard")

// ErrDuplicateShard is returned by AddShard for an ID already in the
// current membership.
var ErrDuplicateShard = errors.New("engine: duplicate shard id")

// ClusterConfig sizes a Cluster of local engine shards.
type ClusterConfig struct {
	// Shards is the number of engine shards; 0 means 1.
	Shards int
	// Shard sizes each shard: its scheme cache, worker pool, and decode
	// queue are all private to the shard. A zero Shard.Workers splits
	// GOMAXPROCS evenly across the shards (at least one worker each)
	// rather than giving every shard a full GOMAXPROCS pool.
	Shard Config
}

func (c ClusterConfig) shards() int {
	if c.Shards <= 0 {
		return 1
	}
	return c.Shards
}

// member is one ring participant: a stable ID plus its shard.
type member struct {
	id string
	sh Shard
}

// view is an immutable membership snapshot: the member list, the ID
// index, and the consistent-hash ring over the member IDs. The cluster
// publishes a new view on every membership change; readers load the
// current one with a single atomic pointer load and never take a lock.
type view struct {
	members []member
	byID    map[string]int
	ring    *Ring
}

func newView(members []member) *view {
	ids := make([]string, len(members))
	byID := make(map[string]int, len(members))
	for i, m := range members {
		ids[i] = m.id
		byID[m.id] = i
	}
	return &view{members: members, byID: byID, ring: NewRing(ids, DefaultVnodes)}
}

// Cluster shards the reconstruction engine: N independent Shards, each
// with its own scheme cache and decode worker pool. Schemes are routed
// to their owning shard by a consistent-hash ring (DefaultVnodes virtual
// nodes per member) over the scheme's routing key — the canonical spec
// key for parametric designs, a content hash for ad-hoc uploads — so one
// tenant's design can never evict another tenant's cached scheme or
// starve its decode queue, and growing or shrinking the fleet moves only
// ~K/N of the keyspace instead of reshuffling everything (the partitioned
// form of the paper's one-design/many-signals regime: fix the design,
// parallelize the per-signal work; shard by design so tenants compose).
//
// Membership is mutable at runtime: AddShard and RemoveShard build a new
// immutable view (member list + ring) and swap it in via atomic pointer,
// so the decode hot path stays lock-free — Owner is one atomic load plus
// one binary search. Ownership is re-resolved from the scheme's routing
// key on every submit, so jobs queued against a since-removed shard
// automatically route to the key's new owner. Health alone routes
// around a dead member: lookup skips unhealthy members by walking the
// ring to the next healthy one, which names the owner the ring of the
// healthy members alone would, so membership changes only when a
// caller adds or removes a shard.
//
// A Cluster exposes the same operational surface as a single Engine
// (Scheme, Submit, Decode, DecodeBatch, MeasureBatch, Stats, Close);
// shards may live in this process (NewCluster) or on other machines
// behind the Shard interface (NewClusterOf with remote shard clients).
type Cluster struct {
	cur atomic.Pointer[view]
	mu  sync.Mutex // serializes membership changes

	adds, removes atomic.Uint64 // lifetime membership-change counters
}

// NewCluster starts cfg.Shards local engine shards.
func NewCluster(cfg ClusterConfig) *Cluster {
	if cfg.Shard.Workers <= 0 {
		w := runtime.GOMAXPROCS(0) / cfg.shards()
		if w < 1 {
			w = 1
		}
		cfg.Shard.Workers = w
	}
	shards := make([]Shard, cfg.shards())
	for i := range shards {
		shards[i] = New(cfg.Shard)
	}
	return NewClusterOf(shards...)
}

// NewClusterOf assembles a cluster over preconstructed shards — local
// engines, remote shard clients, or a mix. Each member's ring ID is its
// remote address, or "local-<i>" for in-process shards; duplicate IDs
// panic (two clients for one worker address is a wiring bug). Each shard
// is told its index (via HomeSetter) before first use.
func NewClusterOf(shards ...Shard) *Cluster {
	if len(shards) == 0 {
		panic("engine: NewClusterOf with no shards")
	}
	members := make([]member, len(shards))
	seen := make(map[string]bool, len(shards))
	for i, sh := range shards {
		id := sh.Addr()
		if id == "" {
			id = "local-" + strconv.Itoa(i)
		}
		if seen[id] {
			panic("engine: duplicate shard id " + id)
		}
		seen[id] = true
		members[i] = member{id: id, sh: sh}
	}
	c := &Cluster{}
	c.install(newView(members))
	return c
}

// install publishes v and re-stamps every member's home index to its
// position in the new view. Caller holds c.mu (or is the constructor).
func (c *Cluster) install(v *view) {
	for i, m := range v.members {
		if hs, ok := m.sh.(HomeSetter); ok {
			hs.SetHome(i)
		}
	}
	c.cur.Store(v)
}

// AddShard joins the shard dial returns to the ring under the stable ID
// id (its remote address, conventionally) and publishes the new
// membership view. dial runs under the membership lock, and only once
// id is known to be new: a refused duplicate builds no shard. dial must
// not call back into the cluster. Keys
// whose arcs the new member takes over re-route on their next submit;
// everything else stays put (the consistent-hashing guarantee).
func (c *Cluster) AddShard(id string, dial func() Shard) error {
	if id == "" {
		return fmt.Errorf("engine: AddShard needs a non-empty id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.cur.Load()
	if _, dup := v.byID[id]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateShard, id)
	}
	members := make([]member, len(v.members), len(v.members)+1)
	copy(members, v.members)
	members = append(members, member{id: id, sh: dial()})
	c.install(newView(members))
	c.adds.Add(1)
	return nil
}

// RemoveShard drops the member with ID id from the ring and publishes
// the new view, returning the removed shard for the caller to drain —
// the cluster does not Close it. Removing the last member is refused
// (ErrLastShard): a cluster with no shards cannot route anything.
func (c *Cluster) RemoveShard(id string) (Shard, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v := c.cur.Load()
	i, ok := v.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownShard, id)
	}
	if len(v.members) == 1 {
		return nil, ErrLastShard
	}
	members := make([]member, 0, len(v.members)-1)
	members = append(members, v.members[:i]...)
	members = append(members, v.members[i+1:]...)
	removed := v.members[i].sh
	c.install(newView(members))
	c.removes.Add(1)
	return removed, nil
}

// Close closes every shard in the current view, draining their queues.
// Shards removed earlier are the remover's to close.
func (c *Cluster) Close() {
	for _, m := range c.cur.Load().members {
		m.sh.Close()
	}
}

// Shards reports the current member count.
func (c *Cluster) Shards() int { return len(c.cur.Load().members) }

// Shard returns member i of the current view (stats, tests, warm-start
// logging).
func (c *Cluster) Shard(i int) Shard { return c.cur.Load().members[i].sh }

// MemberIDs returns the ring IDs of the current membership, in member
// order.
func (c *Cluster) MemberIDs() []string { return c.cur.Load().ring.Members() }

// MembershipChanges reports the lifetime add/remove counts — the backing
// of the pooled_ring_changes_total metric.
func (c *Cluster) MembershipChanges() (adds, removes uint64) {
	return c.adds.Load(), c.removes.Load()
}

// ShardOf reports the index (in the current view) of the shard owning
// spec: a consistent-hash ring lookup of the canonical spec key, skipping
// unhealthy members.
func (c *Cluster) ShardOf(spec Spec) int {
	v := c.cur.Load()
	return v.lookup(spec.Key())
}

// Placement reports where key lives right now, from one lookup of the
// live ring: the owning member's index in the current view and its ring
// ID. Unhealthy members are skipped, as on submit.
func (c *Cluster) Placement(key string) (shard int, id string) {
	v := c.cur.Load()
	i := v.lookup(key)
	if i < 0 {
		return i, ""
	}
	return i, v.members[i].id
}

// OwnerID reports the ring ID of the member owning key.
func (c *Cluster) OwnerID(key string) string {
	_, id := c.Placement(key)
	return id
}

// lookup resolves key to a member index, preferring the ring owner but
// walking clockwise past unhealthy members (a dead worker must not
// black-hole its arcs). If no member is healthy the ring owner is
// returned and the submit path's fail-fast error handling takes over.
func (v *view) lookup(key string) int {
	i := v.ring.Lookup(key)
	if i < 0 || v.members[i].sh.Healthy() {
		return i
	}
	return v.ring.lookupFrom(key, func(m int) bool { return v.members[m].sh.Healthy() }, i)
}

// lookupFrom walks the ring clockwise from key's position until a member
// passes ok, falling back to fallback when none does.
func (r *Ring) lookupFrom(key string, ok func(member int) bool, fallback int) int {
	if len(r.hashes) == 0 {
		return fallback
	}
	h := ringHash(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	tried := make(map[int]bool, len(r.ids))
	for off := 0; off < len(r.hashes); off++ {
		m := r.owner[(start+off)%len(r.hashes)]
		if tried[m] {
			continue
		}
		if ok(m) {
			return m
		}
		tried[m] = true
		if len(tried) == len(r.ids) {
			break
		}
	}
	return fallback
}

// Owner returns the shard that owns s right now: a ring lookup of the
// scheme's routing key against the current membership view. Schemes from
// outside the cluster (a standalone Engine, a zero wrapper) have no key
// and fall back to their creation-time home index, clamped to the view.
func (c *Cluster) Owner(s *Scheme) Shard {
	v := c.cur.Load()
	if key := s.RouteKey(); key != "" {
		if i := v.lookup(key); i >= 0 {
			return v.members[i].sh
		}
	}
	i := s.home
	if i < 0 || i >= len(v.members) {
		i = 0
	}
	return v.members[i].sh
}

// Scheme routes the (design, n, m, seed) request to the owning shard's
// cache. The sharing guarantees of Engine.Scheme hold per shard: repeat
// requests return the identical pointer, concurrent builds dedupe.
func (c *Cluster) Scheme(des pooling.Design, n, m int, seed uint64) (*Scheme, error) {
	if des == nil {
		des = pooling.RandomRegular{}
	}
	v := c.cur.Load()
	return v.members[v.lookup(SpecFor(des, n, m, seed).Key())].sh.Scheme(des, n, m, seed)
}

// SchemeFromGraph wraps a prebuilt design as an uncached scheme placed
// by the ring on key and routed by it afterwards. Uploads pass the
// graph's content hash (GraphKey, computed once by the caller), so
// re-uploading the same design lands on the same shard regardless of
// upload order or intervening membership changes; a worker install
// passes the frontend's install id.
func (c *Cluster) SchemeFromGraph(g *graph.Bipartite, key string) *Scheme {
	v := c.cur.Load()
	return v.members[v.lookup(key)].sh.SchemeFromGraph(g, key)
}

// Submit enqueues the job on its scheme's owning shard.
func (c *Cluster) Submit(ctx context.Context, job Job) (*Future, error) {
	if err := validateJob(job); err != nil {
		return nil, err
	}
	return c.Owner(job.Scheme).Submit(ctx, job)
}

// TrySubmit is Submit with admission control: a saturated shard queue
// returns ErrSaturated instead of blocking.
func (c *Cluster) TrySubmit(ctx context.Context, job Job) (*Future, error) {
	if err := validateJob(job); err != nil {
		return nil, err
	}
	return c.Owner(job.Scheme).TrySubmit(ctx, job)
}

// Offer is TrySubmit without the rejection accounting — the retry path
// of a cooperative scheduler whose jobs were already admitted (the
// campaign dispatcher). Ownership is re-resolved here on every call, so
// a job requeued while its shard died re-routes to the key's new owner.
func (c *Cluster) Offer(ctx context.Context, job Job) (*Future, error) {
	if err := validateJob(job); err != nil {
		return nil, err
	}
	return c.Owner(job.Scheme).Offer(ctx, job)
}

// Decode runs one job through its owning shard's pipeline.
func (c *Cluster) Decode(ctx context.Context, job Job) (Result, error) {
	if err := validateJob(job); err != nil {
		return Result{}, err
	}
	fut, err := c.Owner(job.Scheme).Submit(ctx, job)
	if err != nil {
		return Result{}, err
	}
	return fut.Wait(ctx)
}

// DecodeBatch pipelines one decode job per count vector through the
// scheme's owning shard and waits for all of them. The job template's
// Noise and Dec fields apply to every job. Results are in input order;
// the first decode error (or ctx error) is returned after every
// submitted job has settled, alongside the partial results.
func (c *Cluster) DecodeBatch(ctx context.Context, s *Scheme, ys [][]int64, k int, job Job) ([]Result, error) {
	return decodeBatchOn(c.Owner(s), ctx, s, ys, k, job)
}

// decodeBatchOn is the shared submit-all-then-wait-all batch loop of
// Engine.DecodeBatch and Cluster.DecodeBatch.
func decodeBatchOn(sh Shard, ctx context.Context, s *Scheme, ys [][]int64, k int, job Job) ([]Result, error) {
	futs := make([]*Future, len(ys))
	results := make([]Result, len(ys))
	var firstErr error
	for b, y := range ys {
		j := job
		j.Scheme, j.Y, j.K = s, y, k
		fut, err := sh.Submit(ctx, j)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		futs[b] = fut
	}
	for b, fut := range futs {
		if fut == nil {
			continue
		}
		res, err := fut.Wait(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		results[b] = res
	}
	return results, firstErr
}

// MeasureBatch evaluates the signals on the scheme's owning shard under
// the given noise model (zero model: exact counts).
func (c *Cluster) MeasureBatch(s *Scheme, signals []*bitvec.Vector, nm noise.Model) [][]int64 {
	return c.Owner(s).MeasureBatch(s, signals, nm)
}

// ShardStats is one shard's counters plus its live queue gauges.
type ShardStats struct {
	Stats
	Shard         int `json:"shard"`
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	Workers       int `json:"workers"`
	CachedSchemes int `json:"cached_schemes"`
	// Healthy is always true for local shards; remote shards report
	// their probe state. Addr is empty for local shards. ID is the
	// member's consistent-hash ring ID.
	Healthy bool   `json:"healthy"`
	Addr    string `json:"addr,omitempty"`
	ID      string `json:"id,omitempty"`
}

// ClusterStats aggregates the fleet: Total sums every shard's counters
// (histograms merge bucket-wise), Shards carries the per-shard
// breakdown. Members lists the current ring membership; MembershipAdds
// and MembershipRemoves count lifetime ring changes.
type ClusterStats struct {
	Total             Stats        `json:"total"`
	Shards            []ShardStats `json:"shards"`
	Members           []string     `json:"members,omitempty"`
	MembershipAdds    uint64       `json:"membership_adds"`
	MembershipRemoves uint64       `json:"membership_removes"`
}

// Stats snapshots every shard and the fleet-wide aggregate.
func (c *Cluster) Stats() ClusterStats {
	v := c.cur.Load()
	cs := ClusterStats{
		Shards:  make([]ShardStats, len(v.members)),
		Members: v.ring.Members(),
	}
	cs.MembershipAdds, cs.MembershipRemoves = c.adds.Load(), c.removes.Load()
	for i, m := range v.members {
		e := m.sh
		st := e.Stats()
		cs.Shards[i] = ShardStats{
			Stats:         st,
			Shard:         i,
			QueueDepth:    e.QueueDepth(),
			QueueCapacity: e.QueueCapacity(),
			Workers:       e.Workers(),
			CachedSchemes: e.CachedSchemes(),
			Healthy:       e.Healthy(),
			Addr:          e.Addr(),
			ID:            m.id,
		}
		cs.Total.add(st)
	}
	return cs
}
