package main

import (
	"fmt"
	"math"
	"time"

	"pooleddata/internal/engine"
	"pooleddata/internal/graph"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
)

// Every job decodes at the repository's home scale: a random-regular
// design with n = 10⁴ entries and m = 600 queries, weight k = 16.
const (
	benchN = 10000
	benchM = 600
	benchK = 16
	// campaignJobs is the batch size of one campaign.
	campaignJobs = 64
	// serverShards is pooledd's default -shards; the benchmark needs it to
	// place the two campaign designs on different shards.
	serverShards = 4
)

// workload is one traffic mix. Its open rate was sized at about 45% of
// the capacity one client measured on a 2-vCPU machine, so the open
// phase queues a little but never saturates.
type workload struct {
	name string
	why  string
	// noise is the declared measurement model; the zero value is exact.
	noise noise.Model
	// federated puts the decode on a `pooledd -worker` behind the frontend.
	federated bool
	// campaign sends 64-job campaigns streamed over SSE instead of
	// single-job decodes; the frontend journals them with -wal-dir.
	campaign bool
	// rate is the open-phase arrival rate: jobs per second, or campaigns
	// per second for a campaign workload.
	rate float64
}

var workloads = []workload{
	{
		name: "sync-exact", rate: 250,
		why: "single exact decodes on a local frontend: ingress JSON, engine queue and MN dominate; the control for remote and WAL work",
	},
	{
		name: "sync-gaussian", rate: 60,
		noise: noise.Model{Kind: noise.Gaussian, Sigma: 0.5},
		why:   "single gaussian decodes (mn-refined, about 4x the exact cost): gaussian-path work shows here and not on sync-exact",
	},
	{
		name: "federated-exact", rate: 150, federated: true,
		why: "single exact decodes through a frontend and one -worker: the federation hop is about half of each job",
	},
	{
		name: "campaign-wal", rate: 3, campaign: true,
		why: "64-job campaigns of two tenants streamed over SSE with an fsync-always WAL: admission, fair dispatch, settle, journal and fan-out",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// jobsPerTask is how many jobs one arrival carries.
func (w workload) jobsPerTask() int {
	if w.campaign {
		return campaignJobs
	}
	return 1
}

// designs is the number of pooling designs the workload decodes against.
func (w workload) designs() int {
	if w.campaign {
		return 2
	}
	return 1
}

// tenant names the campaign tenant of design d.
func tenant(d int) string { return []string{"lab-a", "lab-b"}[d] }

// Job indices carry their phase in the high bits, so every job of a run
// has its own signal and no phase reuses another's.
const (
	phaseSetup uint64 = iota + 1
	phaseWarm
	phaseOpen
	phaseClosed
)

func jobIndex(phase uint64, task, job int) uint64 {
	return phase<<40 | uint64(task)<<8 | uint64(job)
}

// jobGen derives every job's planted signal and counts from the run
// seed: the same seed gives the same inputs. The program under test
// receives only the counts.
type jobGen struct {
	seed   uint64
	noise  noise.Model
	seeds  []uint64 // design seeds, one per design
	graphs []*graph.Bipartite
}

// newJobGen builds the workload's designs in-process, exactly as pooledd
// builds them from the same parameters.
func newJobGen(w workload, seed uint64) (*jobGen, error) {
	jg := &jobGen{seed: seed, noise: w.noise, seeds: designSeeds(seed, w.designs())}
	for _, s := range jg.seeds {
		g, err := pooling.RandomRegular{}.Build(benchN, benchM, pooling.BuildOptions{Seed: s})
		if err != nil {
			return nil, err
		}
		jg.graphs = append(jg.graphs, g)
	}
	return jg, nil
}

// designSeeds returns seed followed by the next seeds whose designs land
// on shards no earlier design uses. Left to the ring, some seeds would put
// both tenants on one shard's decode workers and halve the capacity of
// those runs only.
func designSeeds(seed uint64, count int) []uint64 {
	c := engine.NewCluster(engine.ClusterConfig{Shards: serverShards})
	defer c.Close()
	used := make(map[int]bool)
	var out []uint64
	for s := seed; len(out) < count; s++ {
		sh := c.ShardOf(engine.SpecFor(pooling.RandomRegular{}, benchN, benchM, s))
		if !used[sh] {
			used[sh] = true
			out = append(out, s)
		}
	}
	return out
}

// signal is job idx's planted support, ascending.
func (jg *jobGen) signal(idx uint64) []int {
	return rng.NewRandSeeded(rng.DeriveSeed(jg.seed, idx)).SampleK(benchN, benchK)
}

// counts measures support on design d under the workload's noise model.
func (jg *jobGen) counts(d int, idx uint64, support []int) []int64 {
	g := jg.graphs[d]
	y := make([]int64, g.M())
	for _, e := range support {
		qs, mu := g.EntryQueries(e)
		for p, q := range qs {
			y[q] += int64(mu[p])
		}
	}
	if !jg.noise.IsExact() {
		r := rng.NewRandSeeded(rng.DeriveSeed(^jg.seed, idx))
		for q := range y {
			y[q] = jg.noise.Perturb(y[q], r)
		}
	}
	return y
}

// poisson returns the due offsets of Poisson arrivals at rate per second
// over d, seeded so one seed always yields one schedule.
func poisson(seed uint64, rate float64, d time.Duration) []time.Duration {
	r := rng.NewRandSeeded(seed)
	var out []time.Duration
	var t float64
	for {
		t += -math.Log(1-r.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}
