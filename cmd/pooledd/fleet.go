package main

import (
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"pooleddata/internal/engine"
	"pooleddata/internal/remote"
	"pooleddata/metrics"
)

// fleet owns runtime worker membership for a -workers frontend: the
// remote shard clients, their place on the cluster's consistent-hash
// ring, and the probe-driven eviction/rejoin loop. It exists only in
// federated mode — a local-shard frontend has a static topology and no
// fleet.
//
// Membership has two lifecycles that must not be conflated:
//
//   - Administrative (POST/DELETE /v1/workers): a DELETE drains the
//     worker completely — out of the ring, probe stopped, client
//     closed. It will not come back on its own.
//   - Probe-driven (EvictAfter consecutive probe failures): the worker
//     leaves the ring but the client keeps probing, and the first
//     successful probe re-admits it. A crashed-and-restarted worker
//     rejoins without an operator in the loop.
type fleet struct {
	cluster *engine.Cluster
	cfg     fleetConfig

	mu      sync.Mutex
	workers map[string]*remote.Shard // every tracked client, in-ring or evicted
}

// fleetConfig carries the per-worker client knobs every fleet member is
// built with, at boot and at runtime registration alike.
type fleetConfig struct {
	timeout       time.Duration
	probeInterval time.Duration
	retryBackoff  time.Duration
	retries       int
	evictAfter    int
	reg           *metrics.Registry
	log           *slog.Logger
}

// newFleet builds the boot-time fleet from the -workers list and
// returns it with the cluster fronting those workers.
func newFleet(addrs []string, cfg fleetConfig) (*fleet, *engine.Cluster) {
	if cfg.log == nil {
		cfg.log = slog.Default()
	}
	f := &fleet{
		cfg:     cfg,
		workers: make(map[string]*remote.Shard, len(addrs)),
	}
	// Each client's probe goroutine starts inside remote.New and may call
	// f.evict, which reads f.workers and f.cluster under f.mu.
	f.mu.Lock()
	defer f.mu.Unlock()
	shards := make([]engine.Shard, len(addrs))
	for i, a := range addrs {
		sh := f.newShard(a)
		shards[i] = sh
		f.workers[a] = sh
	}
	f.cluster = engine.NewClusterOf(shards...)
	return f, f.cluster
}

// newShard constructs one remote client with the eviction hooks bound
// to its address. Hooks fire from the client's probe goroutine.
func (f *fleet) newShard(addr string) *remote.Shard {
	return remote.New(remote.Options{
		Addr: addr, RequestTimeout: f.cfg.timeout,
		ProbeInterval: f.cfg.probeInterval,
		RetryBackoff:  f.cfg.retryBackoff,
		Retries:       f.cfg.retries,
		EvictAfter:    f.cfg.evictAfter,
		OnEvict:       func() { f.evict(addr) },
		OnRejoin:      func() { f.rejoin(addr) },
		Metrics:       f.cfg.reg, Logger: f.cfg.log,
	})
}

// Close stops every tracked client and then the cluster. Evicted
// workers are closed here explicitly — the cluster no longer owns them.
// Clients are closed outside f.mu: Shard.Close waits for the probe
// goroutine, which may itself be blocked in an evict/rejoin hook that
// needs f.mu.
func (f *fleet) Close() {
	f.mu.Lock()
	var orphans []*remote.Shard
	for addr, sh := range f.workers {
		if !f.cluster.HasMember(addr) {
			orphans = append(orphans, sh)
		}
	}
	f.workers = map[string]*remote.Shard{}
	f.mu.Unlock()
	for _, sh := range orphans {
		sh.Close()
	}
	f.cluster.Close()
}

// Add registers a new worker: builds its client and joins it to the
// ring. Fails on a duplicate address.
func (f *fleet) Add(addr string) error {
	f.mu.Lock()
	if _, dup := f.workers[addr]; dup {
		f.mu.Unlock()
		return fmt.Errorf("worker %s already registered", addr)
	}
	sh := f.newShard(addr)
	if err := f.cluster.AddShard(addr, sh); err != nil {
		f.mu.Unlock()
		sh.Close()
		return err
	}
	f.workers[addr] = sh
	f.mu.Unlock()
	f.cfg.log.Info("worker joined", "addr", addr, "members", f.cluster.Shards())
	return nil
}

// Remove drains a worker administratively: out of the ring, probe
// stopped, client closed. Refuses to drain the last ring member.
//
// The client is closed after releasing f.mu: Close waits out the probe
// goroutine, and that goroutine may be blocked in an evict/rejoin hook
// waiting for f.mu — closing under the lock would wedge both sides
// whenever a drain races a probe-threshold transition (the common case:
// draining a worker whose probes are already failing). Once the worker
// is out of the map, a concurrently queued hook no-ops on its tracked
// check, so the late Close is safe.
func (f *fleet) Remove(addr string) error {
	f.mu.Lock()
	sh, ok := f.workers[addr]
	if !ok {
		f.mu.Unlock()
		return engine.ErrUnknownShard
	}
	if f.cluster.HasMember(addr) {
		if _, err := f.cluster.RemoveShard(addr); err != nil {
			f.mu.Unlock()
			return err
		}
	} else if len(f.workers) == 1 {
		// Evicted but still the only worker we know: draining it would
		// leave nothing to rejoin.
		f.mu.Unlock()
		return engine.ErrLastShard
	}
	delete(f.workers, addr)
	f.mu.Unlock()
	sh.Close()
	f.cfg.log.Info("worker drained", "addr", addr, "members", f.cluster.Shards())
	return nil
}

// evict pulls a probe-dead worker out of the ring. The client keeps
// probing; rejoin re-admits it. Fires from the probe goroutine.
func (f *fleet) evict(addr string) {
	f.mu.Lock()
	if _, tracked := f.workers[addr]; !tracked || !f.cluster.HasMember(addr) {
		f.mu.Unlock()
		return
	}
	if _, err := f.cluster.RemoveShard(addr); err != nil {
		// Last ring member: leave it in place — an empty ring serves
		// nothing, and the health-skip lookup already degrades sanely.
		f.mu.Unlock()
		f.cfg.log.Warn("eviction skipped", "addr", addr, "err", err)
		return
	}
	f.mu.Unlock()
	f.cfg.log.Warn("worker evicted after failed probes", "addr", addr, "members", f.cluster.Shards())
}

// rejoin re-admits an evicted worker whose probe recovered. Fires from
// the probe goroutine; a concurrent administrative drain wins.
func (f *fleet) rejoin(addr string) {
	f.mu.Lock()
	sh, tracked := f.workers[addr]
	if !tracked || f.cluster.HasMember(addr) {
		f.mu.Unlock()
		return
	}
	if err := f.cluster.AddShard(addr, sh); err != nil {
		f.mu.Unlock()
		f.cfg.log.Warn("rejoin failed", "addr", addr, "err", err)
		return
	}
	f.mu.Unlock()
	f.cfg.log.Info("worker rejoined", "addr", addr, "members", f.cluster.Shards())
}

// workerStatus is one row of GET /v1/workers.
type workerStatus struct {
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`
	// Member reports ring membership: false for a worker that is
	// tracked (still probed) but evicted from the ring.
	Member bool `json:"member"`
}

// Status lists every tracked worker, in-ring or evicted.
func (f *fleet) Status() []workerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]workerStatus, 0, len(f.workers))
	for addr, sh := range f.workers {
		out = append(out, workerStatus{
			Addr: addr, Healthy: sh.Healthy(), Member: f.cluster.HasMember(addr),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}
