// Benchmarks regenerating the repository's experiment tables (E1..E11 in
// DESIGN.md), one per table. Beyond wall-clock time, each benchmark
// reports the metric the paper actually bounds — reallocations or
// migrations per request — via b.ReportMetric.
//
// Run everything with:
//
//	go test -bench=. -benchmem ./...
package realloc

import (
	"fmt"
	"testing"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/lowerbound"
	"repro/internal/mixed"
	"repro/internal/multi"
	"repro/internal/naive"
	"repro/internal/pma"
	"repro/internal/sched"
	"repro/internal/sized"
	"repro/internal/trim"
	"repro/internal/workload"
)

// churn runs b.N requests from a fresh γ-underallocated generator against
// the scheduler, reporting reallocations and migrations per request.
func churn(b *testing.B, s sched.Scheduler, cfg workload.Config) {
	b.Helper()
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	totalRealloc, totalMigr := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sched.Apply(s, g.Next())
		if err != nil {
			b.Fatalf("request %d: %v", i, err)
		}
		totalRealloc += c.Reallocations
		totalMigr += c.Migrations
	}
	b.StopTimer()
	b.ReportMetric(float64(totalRealloc)/float64(b.N), "reallocs/req")
	b.ReportMetric(float64(totalMigr)/float64(b.N), "migrations/req")
}

// BenchmarkE1ReservationCost regenerates E1: steady-state churn on the
// single-machine reservation scheduler (Theorem 1's cost bound).
func BenchmarkE1ReservationCost(b *testing.B) {
	for _, target := range []int{256, 4096} {
		b.Run(fmt.Sprintf("n=%d", target), func(b *testing.B) {
			s := core.New(core.WithMaxIntervals(1 << 24))
			churn(b, s, workload.Config{
				Seed: 1, Gamma: 8, Horizon: int64(64 * target), Target: target,
				Steps: 1 << 30,
			})
		})
	}
}

// BenchmarkE2NaiveLogDelta regenerates E2: worst-case cascades of the
// naive pecking-order scheduler at growing Δ.
func BenchmarkE2NaiveLogDelta(b *testing.B) {
	for _, delta := range []int64{1 << 10, 1 << 18} {
		b.Run(fmt.Sprintf("delta=%d", delta), func(b *testing.B) {
			s := naive.New()
			fill := workload.NestedCascade(delta, 0)
			if _, err := sched.Run(s, fill, nil); err != nil {
				b.Fatal(err)
			}
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := s.Insert(Job{Name: fmt.Sprintf("p%d", i), Window: Win(0, 1)})
				if err != nil {
					b.Fatal(err)
				}
				total += c.Reallocations
				if _, err := s.Delete(fmt.Sprintf("p%d", i)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/float64(b.N), "reallocs/probe")
		})
	}
}

// BenchmarkE3EDFBrittle and BenchmarkE3ReservationRobust regenerate E3:
// the same urgent-insert probe against both schedulers.
func BenchmarkE3EDFBrittle(b *testing.B) {
	benchE3(b, func() sched.Scheduler { return edf.New(1) })
}

// BenchmarkE3ReservationRobust is E3's reservation-side series.
func BenchmarkE3ReservationRobust(b *testing.B) {
	benchE3(b, func() sched.Scheduler {
		return alignsched.New(core.New(core.WithMaxIntervals(1 << 24)))
	})
}

func benchE3(b *testing.B, factory func() sched.Scheduler) {
	const n = 512
	s := factory()
	if _, err := sched.Run(s, lowerbound.FrontInsertSequence(n, 0), nil); err != nil {
		b.Fatal(err)
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("urgent%d", i)
		before := s.Assignment()
		if _, err := sched.Apply(s, InsertReq(name, 0, 1)); err != nil {
			b.Fatal(err)
		}
		moved, _ := before.Diff(s.Assignment())
		total += moved + 1
		if _, err := sched.Apply(s, DeleteReq(name)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(b.N), "reallocs/probe")
}

// BenchmarkE4MigrationLB regenerates E4: the adaptive Lemma 11 adversary
// on the full stack (one iteration = one 6m-request round).
func BenchmarkE4MigrationLB(b *testing.B) {
	for _, m := range []int{2, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			totalMigr, totalReq := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := alignsched.New(multi.New(m, func() sched.Scheduler { return core.New() }))
				b.StartTimer()
				res, err := lowerbound.RunLemma11(s, 1)
				if err != nil {
					b.Fatal(err)
				}
				totalMigr += res.TotalMigrations
				totalReq += res.Requests
			}
			b.StopTimer()
			b.ReportMetric(float64(totalMigr)/float64(totalReq), "migrations/req")
		})
	}
}

// BenchmarkE5QuadraticLB regenerates E5: one iteration = one Lemma 12
// toggle pair on a fully subscribed chain (Θ(eta) cost each).
func BenchmarkE5QuadraticLB(b *testing.B) {
	const eta = 256
	s := edf.New(1)
	if _, err := sched.Run(s, lowerbound.Lemma12Sequence(eta, 0), nil); err != nil {
		b.Fatal(err)
	}
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, w := range []Window{Win(0, 1), Win(eta, eta+1)} {
			name := fmt.Sprintf("t%d-%d", i, k)
			before := s.Assignment()
			if _, err := sched.Apply(s, Request(InsertReq(name, w.Start, w.End))); err != nil {
				b.Fatal(err)
			}
			moved, _ := before.Diff(s.Assignment())
			total += moved + 1
			if _, err := sched.Apply(s, DeleteReq(name)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(2*b.N), "reallocs/toggle")
}

// BenchmarkE6MixedSizes regenerates E6: one iteration = one Observation 13
// sweep (2γ slides of the size-k job).
func BenchmarkE6MixedSizes(b *testing.B) {
	for _, k := range []int64{16, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mixed.RunObservation13(k, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				total += res.TotalCost
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/float64(b.N), "reallocs/sweep")
		})
	}
}

// BenchmarkE7Migrations regenerates E7: multi-machine churn with the
// migration bound.
func BenchmarkE7Migrations(b *testing.B) {
	for _, m := range []int{2, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			s := multi.New(m, func() sched.Scheduler { return core.New() })
			churn(b, s, workload.Config{
				Seed: int64(m), Machines: m, Gamma: 12, Horizon: 4096, Steps: 1 << 30,
			})
		})
	}
}

// BenchmarkE8HistoryIndependence regenerates E8: one iteration builds the
// same job multiset along two histories and compares reservation
// snapshots.
func BenchmarkE8HistoryIndependence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := workload.NewGenerator(workload.Config{
			Seed: int64(i), Gamma: 8, Horizon: 1024, Steps: 150,
		})
		if err != nil {
			b.Fatal(err)
		}
		s1 := core.New()
		if _, err := sched.Run(s1, g.Sequence(), nil); err != nil {
			b.Fatal(err)
		}
		s2 := core.New()
		for _, j := range g.Active() {
			if _, err := s2.Insert(j); err != nil {
				b.Fatal(err)
			}
		}
		snap1, snap2 := s1.ReservationSnapshot(), s2.ReservationSnapshot()
		if len(snap1) != len(snap2) {
			b.Fatal("history independence violated")
		}
		for k := range snap1 {
			if snap1[k] != snap2[k] {
				b.Fatal("history independence violated")
			}
		}
	}
}

// BenchmarkE9GammaSweep regenerates E9's headline row: churn exactly at
// the guaranteed slack γ=8.
func BenchmarkE9GammaSweep(b *testing.B) {
	s := core.New()
	churn(b, s, workload.Config{Seed: 9, Gamma: 8, Horizon: 2048, Steps: 1 << 30})
}

// BenchmarkE10Rebuild regenerates E10: grow/shrink cycles across n*
// boundaries under the trimming wrapper (one iteration = one
// insert+delete pair).
func BenchmarkE10Rebuild(b *testing.B) {
	s := trim.New(8, func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 24)) })
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c1, err := s.Insert(Job{Name: fmt.Sprintf("g%d", i), Window: Win(0, 1<<40)})
		if err != nil {
			b.Fatal(err)
		}
		// Delete every other job to keep the population oscillating.
		total += c1.Reallocations
		if i%2 == 1 {
			c2, err := s.Delete(fmt.Sprintf("g%d", i-1))
			if err != nil {
				b.Fatal(err)
			}
			total += c2.Reallocations
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(b.N), "reallocs/req")
	b.ReportMetric(float64(s.Rebuilds()), "rebuilds")
}

// BenchmarkE11EndToEnd regenerates E11: the full Theorem 1 stack under
// unaligned churn on 4 machines, through the public API.
func BenchmarkE11EndToEnd(b *testing.B) {
	s := New(WithMachines(4))
	g, err := workload.NewGenerator(workload.Config{
		Seed: 11, Machines: 4, Gamma: 24, Horizon: 8192, Steps: 1 << 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	totalRealloc, totalMigr := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := g.Next()
		if r.Kind == 0 { // insert: widen the window so it is unaligned
			r.Window.End += r.Window.Span() / 3
		}
		c, err := sched.Apply(s, r)
		if err != nil {
			b.Fatal(err)
		}
		totalRealloc += c.Reallocations
		totalMigr += c.Migrations
	}
	b.StopTimer()
	b.ReportMetric(float64(totalRealloc)/float64(b.N), "reallocs/req")
	b.ReportMetric(float64(totalMigr)/float64(b.N), "migrations/req")
}

// BenchmarkE12SizedJobs regenerates E12: one iteration = one slide sweep
// of the size-k job over the block-aligned sized scheduler.
func BenchmarkE12SizedJobs(b *testing.B) {
	for _, k := range []int64{16, 256} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sized.RunSlide(k, 2, 1)
				if err != nil {
					b.Fatal(err)
				}
				total += res.TotalCost
			}
			b.StopTimer()
			b.ReportMetric(float64(total)/float64(b.N), "reallocs/sweep")
		})
	}
}

// BenchmarkE15PMA regenerates E15: PMA inserts (the framework's
// sparse-array sibling), reporting amortized moves per insert.
func BenchmarkE15PMA(b *testing.B) {
	p := pma.New()
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moves, err := p.Insert(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		total += moves
	}
	b.StopTimer()
	b.ReportMetric(float64(total)/float64(b.N), "moves/insert")
}
