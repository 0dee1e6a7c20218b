package remote

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/engine"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/rng"
)

// BenchmarkRemoteShardDecode prices the federation hop: one decode
// through a worker over httptest loopback (a one-job frame + HTTP + the
// client queue) against the same decode on a local shard, plus the
// coalesced variants — bursts of 32 and 64 jobs, where the jobs queued
// behind an in-flight frame share the next — whose per-job cost is the
// wire overhead after amortization. Allocations are reported so the
// pooled serialize buffers stay visible in allocs/op.
func BenchmarkRemoteShardDecode(b *testing.B) {
	const n, m, k = 2000, 800, 10
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(5))

	run := func(b *testing.B, cluster *engine.Cluster) {
		b.Helper()
		b.ReportAllocs()
		s, err := cluster.Scheme(nil, n, m, 3)
		if err != nil {
			b.Fatal(err)
		}
		y := cluster.MeasureBatch(s, []*bitvec.Vector{sigma}, noise.Model{})[0]
		// Warm up once so the one-time scheme install (design encode +
		// parse) stays out of the steady-state measurement.
		if _, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: k}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: k}); err != nil {
				b.Fatal(err)
			}
		}
	}

	// One iteration = one burst of concurrent submits settled; compare
	// local-batchN with remote-batchN for the coalesced-parity number.
	runBurst := func(b *testing.B, cluster *engine.Cluster, burst int) {
		b.Helper()
		b.ReportAllocs()
		s, err := cluster.Scheme(nil, n, m, 3)
		if err != nil {
			b.Fatal(err)
		}
		y := cluster.MeasureBatch(s, []*bitvec.Vector{sigma}, noise.Model{})[0]
		if _, err := cluster.Decode(context.Background(), engine.Job{Scheme: s, Y: y, K: k}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			futs := make([]*engine.Future, burst)
			for j := range futs {
				fut, err := cluster.Submit(context.Background(), engine.Job{Scheme: s, Y: y, K: k})
				if err != nil {
					b.Fatal(err)
				}
				futs[j] = fut
			}
			for _, fut := range futs {
				if _, err := fut.Wait(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}
	}

	b.Run("local", func(b *testing.B) {
		cluster := engine.NewCluster(engine.ClusterConfig{Shards: 1, Shard: engine.Config{Workers: 2}})
		defer cluster.Close()
		run(b, cluster)
	})
	// The worker's per-decode log line writes to the terminal; the local
	// cluster logs nothing, so silence it to compare decode + wire alone.
	quiet := ServerOptions{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}

	b.Run("remote", func(b *testing.B) {
		_, ts := newWorker(b, 1, 2, 0, quiet)
		sh := New(fastOptions(ts.Listener.Addr().String()))
		defer sh.Close()
		run(b, engine.NewClusterOf(sh))
	})
	for _, burst := range []int{32, 64} {
		burst := burst
		b.Run(fmt.Sprintf("local-batch%d", burst), func(b *testing.B) {
			cluster := engine.NewCluster(engine.ClusterConfig{
				Shards: 1, Shard: engine.Config{Workers: 2, QueueDepth: burst * 2},
			})
			defer cluster.Close()
			runBurst(b, cluster, burst)
		})
		b.Run(fmt.Sprintf("remote-batch%d", burst), func(b *testing.B) {
			_, ts := newWorker(b, 1, 2, burst*2, quiet)
			o := fastOptions(ts.Listener.Addr().String())
			o.QueueDepth = burst * 2
			o.MaxBatch = burst
			// One sender, so the jobs queued behind its in-flight frame
			// ride the next one together.
			o.Senders = 1
			sh := New(o)
			defer sh.Close()
			runBurst(b, engine.NewClusterOf(sh), burst)
		})
	}
}

// BenchmarkSchemeInstall prices one worker install at the service's
// home scale (n = 10⁴, m = 600, Γ = n/2): encode the design's binary
// form, PUT it to a worker over httptest loopback, parse and validate it
// there.
// Client and worker share the process, so allocs/op cover both tiers;
// SetBytes makes the body size visible as MB/s.
func BenchmarkSchemeInstall(b *testing.B) {
	const n, m = 10_000, 600
	spec := engine.SpecFor(pooling.RandomRegular{}, n, m, 1)
	g, err := pooling.RandomRegular{}.Build(n, m, pooling.BuildOptions{Seed: spec.Seed})
	if err != nil {
		b.Fatal(err)
	}
	sc := engine.NewSchemeAt(spec, spec.Key(), g, 0)
	_, ts := newWorker(b, 1, 1, 0, ServerOptions{})
	sh := newShard(b, ts, nil)
	b.SetBytes(int64(len(g.AppendBinary(nil))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The client forgets the install each round, so ensure really
		// ships; the worker replaces the previous install under the id.
		sh.record(spec.Key()).clear()
		if err := sh.ensure(context.Background(), &schemeState{id: spec.Key(), scheme: sc}); err != nil {
			b.Fatal(err)
		}
	}
}
