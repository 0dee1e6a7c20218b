package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

func TestClusterAddRemoveShard(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 2, Shard: Config{Workers: 1}})
	defer c.Close()
	if got := c.MemberIDs(); len(got) != 2 || got[0] != "local-0" || got[1] != "local-1" {
		t.Fatalf("initial members = %v", got)
	}

	extra := New(Config{Workers: 1})
	defer extra.Close()
	if err := c.AddShard("local-2", func() Shard { return extra }); err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 3 || !slices.Contains(c.MemberIDs(), "local-2") {
		t.Fatalf("after add: %d shards, members %v", c.Shards(), c.MemberIDs())
	}
	if err := c.AddShard("local-2", func() Shard { return extra }); !errors.Is(err, ErrDuplicateShard) {
		t.Fatalf("duplicate add: err = %v, want ErrDuplicateShard", err)
	}

	removed, err := c.RemoveShard("local-2")
	if err != nil {
		t.Fatal(err)
	}
	if removed != Shard(extra) {
		t.Fatal("RemoveShard returned a different shard")
	}
	if slices.Contains(c.MemberIDs(), "local-2") {
		t.Fatal("removed member still listed")
	}
	if _, err := c.RemoveShard("local-2"); !errors.Is(err, ErrUnknownShard) {
		t.Fatalf("double remove: err = %v, want ErrUnknownShard", err)
	}
	if _, err := c.RemoveShard("local-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RemoveShard("local-1"); !errors.Is(err, ErrLastShard) {
		t.Fatalf("removing last shard: err = %v, want ErrLastShard", err)
	}
	adds, removes := c.MembershipChanges()
	if adds != 1 || removes != 2 {
		t.Fatalf("membership changes = %d adds / %d removes, want 1/2", adds, removes)
	}
}

// TestClusterReroutesAfterRemove: a scheme owned by a removed shard
// re-resolves to a surviving member at submit time — stale pointers held
// by queued jobs keep working across membership changes.
func TestClusterReroutesAfterRemove(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 3, Shard: Config{Workers: 1}})
	defer c.Close()
	const n, k, m = 200, 4, 150

	s, err := c.Scheme(nil, n, m, 7)
	if err != nil {
		t.Fatal(err)
	}
	ownerID := c.OwnerID(s.RouteKey())
	sigma := bitvecRandom(t, n, k, 31)
	y := query.Execute(s.G, sigma, query.Options{}).Y
	want, err := c.Decode(context.Background(), Job{Scheme: s, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}

	removed, err := c.RemoveShard(ownerID)
	if err != nil {
		t.Fatal(err)
	}
	defer removed.Close()
	if newOwner := c.OwnerID(s.RouteKey()); newOwner == ownerID {
		t.Fatal("key still owned by removed member")
	}

	// The same stale *Scheme decodes bit-identically on the new owner.
	got, err := c.Decode(context.Background(), Job{Scheme: s, Y: y, K: k})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Estimate.Equal(want.Estimate) {
		t.Fatal("decode after membership change is not bit-identical")
	}
}

// TestClusterAddShardMovesOnlyItsArcs: after a join, the only specs
// whose owner changed are those now owned by the new member.
func TestClusterAddShardMovesOnlyItsArcs(t *testing.T) {
	c := NewCluster(ClusterConfig{Shards: 3, Shard: Config{Workers: 1}})
	defer c.Close()
	specs := make([]Spec, 200)
	before := make([]string, len(specs))
	for i := range specs {
		specs[i] = SpecFor(pooling.RandomRegular{}, 100+i, 50+i, uint64(i))
		before[i] = c.OwnerID(specs[i].Key())
	}
	joined := New(Config{Workers: 1})
	defer joined.Close()
	if err := c.AddShard("local-9", func() Shard { return joined }); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := range specs {
		after := c.OwnerID(specs[i].Key())
		if after == before[i] {
			continue
		}
		moved++
		if after != "local-9" {
			t.Fatalf("spec %d moved %s -> %s, not to the joined member", i, before[i], after)
		}
	}
	if moved == 0 {
		t.Fatal("join moved no keys at all")
	}
}

// unhealthyShard wraps a local engine and reports unhealthy — the state
// of a remote whose worker died.
type unhealthyShard struct {
	*Engine
	mu      sync.Mutex
	healthy bool
}

func (u *unhealthyShard) Healthy() bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.healthy
}

func (u *unhealthyShard) setHealthy(ok bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.healthy = ok
}

// TestClusterSkipsUnhealthyOwner: keys whose ring owner is unhealthy
// route to the next healthy member instead of black-holing, and return
// home when it recovers.
func TestClusterSkipsUnhealthyOwner(t *testing.T) {
	flaky := &unhealthyShard{Engine: New(Config{Workers: 1}), healthy: true}
	stable := New(Config{Workers: 1})
	c := NewClusterOf(flaky, stable)
	defer c.Close()

	// Find a spec the flaky member owns.
	var spec Spec
	found := false
	for seed := uint64(1); seed < 128; seed++ {
		spec = SpecFor(pooling.RandomRegular{}, 100, 50, seed)
		if c.ShardOf(spec) == 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no spec routed to shard 0")
	}

	flaky.setHealthy(false)
	if got := c.ShardOf(spec); got != 1 {
		t.Fatalf("unhealthy owner: ShardOf = %d, want failover to 1", got)
	}
	flaky.setHealthy(true)
	if got := c.ShardOf(spec); got != 0 {
		t.Fatalf("recovered owner: ShardOf = %d, want 0", got)
	}
}

// healthOnly is a member whose only live method is Healthy, all lookup
// reads.
type healthOnly struct {
	Shard
	ok bool
}

func (h healthOnly) Healthy() bool { return h.ok }

// TestHealthSkipMatchesHealthyRing: routing around unhealthy members
// is routing on the ring of the healthy members alone. For random
// fleets of 2–8 members with a random non-empty healthy subset, the
// health-skipping lookup names the same owner as NewRing over the
// healthy ids, so no ring change is needed to keep keys off a dead
// member or to bring them back when it recovers.
func TestHealthSkipMatchesHealthyRing(t *testing.T) {
	r := rng.NewRandSeeded(2026)
	keys := ringKeys(500)
	for fleet := 0; fleet < 192; fleet++ {
		size := 2 + fleet%7
		members := make([]member, size)
		var healthy []string
		for i := range members {
			id := fmt.Sprintf("10.%d.%d.%d:%d", r.Intn(256), r.Intn(256), r.Intn(256), 1024+r.Intn(60000))
			ok := r.Bernoulli(0.5)
			members[i] = member{id: id, sh: healthOnly{ok: ok}}
			if ok {
				healthy = append(healthy, id)
			}
		}
		if len(healthy) == 0 {
			i := r.Intn(size)
			members[i].sh = healthOnly{ok: true}
			healthy = append(healthy, members[i].id)
		}
		v, alone := newView(members), NewRing(healthy, DefaultVnodes)
		for _, k := range keys {
			if got, want := v.members[v.lookup(k)].id, alone.LookupID(k); got != want {
				t.Fatalf("fleet %d (%d members, healthy %v): key %q routes to %s, the healthy ring names %s",
					fleet, size, healthy, k, got, want)
			}
		}
	}
}
