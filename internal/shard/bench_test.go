package shard

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/jobs"
	"repro/internal/workload"
)

// benchReqs generates one underallocated mixed churn sequence sized to
// the benchmark.
func benchReqs(b *testing.B, machines, steps int) []jobs.Request {
	b.Helper()
	g, err := workload.NewGenerator(workload.Config{
		Seed: 1, Machines: machines, Gamma: 8, Horizon: 1 << 14, Steps: steps,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g.Sequence()
}

// BenchmarkApplySequential measures the single-caller synchronous path
// at several shard counts.
func BenchmarkApplySequential(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			reqs := benchReqs(b, 8, 2048)
			s := New(Config{Shards: shards, Machines: 8, Factory: stackFactory})
			defer s.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := reqs[i%len(reqs)]
				// Replaying the ring buffer re-applies inserts/deletes
				// of the same names; tolerate the resulting duplicate
				// and unknown errors — the cycle keeps a stable
				// population either way.
				_, _ = s.Apply(r)
			}
		})
	}
}

// BenchmarkApplyParallel measures synchronous throughput with
// concurrent callers on disjoint name spaces: each caller inserts a job
// and deletes it on its next iteration.
func BenchmarkApplyParallel(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := New(Config{Shards: shards, Machines: 8, Factory: stackFactory})
			defer s.Close()
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := next.Add(1)
				for i := 0; pb.Next(); i++ {
					name := fmt.Sprintf("b%d-%06d", id, i/2)
					var err error
					if i%2 == 0 {
						_, err = s.Apply(jobs.InsertReq(name, 0, 1<<14))
					} else {
						_, err = s.Apply(jobs.DeleteReq(name))
					}
					if err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}
