// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - trimming: amortized rebuild vs no trimming at all;
//   - the alignment wrapper's overhead on already-aligned input.
package realloc

import (
	"fmt"
	"testing"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/trim"
	"repro/internal/workload"
)

// BenchmarkAblationTrimming compares the trimming variants over a
// grow/shrink oscillation that crosses n* boundaries.
func BenchmarkAblationTrimming(b *testing.B) {
	factory := func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 24)) }
	variants := map[string]func() sched.Scheduler{
		"none":      factory,
		"amortized": func() sched.Scheduler { return trim.New(8, factory) },
	}
	for name, make := range variants {
		b.Run(name, func(b *testing.B) {
			s := make()
			total, maxOne := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := s.Insert(Job{Name: fmt.Sprintf("a%d", i), Window: Win(0, 1<<18)})
				if err != nil {
					b.Fatal(err)
				}
				total += c.Reallocations
				if c.Reallocations > maxOne {
					maxOne = c.Reallocations
				}
				if i%2 == 1 {
					c, err := s.Delete(fmt.Sprintf("a%d", i-1))
					if err != nil {
						b.Fatal(err)
					}
					total += c.Reallocations
					if c.Reallocations > maxOne {
						maxOne = c.Reallocations
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/float64(b.N), "reallocs/req")
			b.ReportMetric(float64(maxOne), "worst-request")
		})
	}
}

// BenchmarkAblationAlignmentWrapper measures the Section 5 wrapper's
// overhead when the input is already aligned (pure bookkeeping cost).
func BenchmarkAblationAlignmentWrapper(b *testing.B) {
	variants := map[string]func() sched.Scheduler{
		"bare":    func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 24)) },
		"wrapped": func() sched.Scheduler { return alignsched.New(core.New(core.WithMaxIntervals(1 << 24))) },
	}
	for name, make := range variants {
		b.Run(name, func(b *testing.B) {
			churn(b, make(), workload.Config{Seed: 3, Gamma: 8, Horizon: 4096, Steps: 1 << 30})
		})
	}
}
