package core

import (
	"fmt"
	"testing"

	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkInsertDeleteSteadyState measures one insert+delete pair at a
// steady population across span regimes.
func BenchmarkInsertDeleteSteadyState(b *testing.B) {
	for _, span := range []int64{8, 64, 1024} {
		b.Run(fmt.Sprintf("span=%d", span), func(b *testing.B) {
			s := New(WithMaxIntervals(1 << 24))
			// Steady population of 64 jobs in disjoint windows.
			for i := int64(0); i < 64; i++ {
				j := jobs.Job{Name: fmt.Sprintf("bg%d", i),
					Window: jobs.Window{Start: i * span, End: (i + 1) * span}}
				if _, err := s.Insert(j); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name := fmt.Sprintf("p%d", i)
				if _, err := s.Insert(jobs.Job{Name: name,
					Window: jobs.Window{Start: 0, End: span}}); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Delete(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChurn measures request throughput under random churn.
func BenchmarkChurn(b *testing.B) {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 1, Gamma: 8, Horizon: 8192, Steps: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New(WithMaxIntervals(1 << 24))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Apply(s, g.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuild measures one trim-style rebuild: tableJobs' fixed
// job set (both reservation levels) inserted into New(), then Recycle.
// It is the tier-0 benchmark that creates and recycles intervals.
func BenchmarkRebuild(b *testing.B) {
	set := tableJobs("r", true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, j := range set {
			if _, err := s.Insert(j); err != nil {
				b.Fatal(err)
			}
		}
		s.Recycle()
	}
}

// BenchmarkSelfCheck measures the invariant checker's cost (tests run it
// after every request; this quantifies what that costs).
func BenchmarkSelfCheck(b *testing.B) {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 2, Gamma: 8, Horizon: 4096, Steps: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New()
	if _, err := sched.Run(s, g.Sequence(), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SelfCheck(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReservationSnapshot measures the history-independence
// snapshot (the E8 primitive).
func BenchmarkReservationSnapshot(b *testing.B) {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 3, Gamma: 8, Horizon: 4096, Steps: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := New()
	if _, err := sched.Run(s, g.Sequence(), nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := s.ReservationSnapshot(); len(snap) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}
