// Differential tests: run the same request sequences through independent
// implementations and cross-validate their answers.
//
//   - cost accounting: every scheduler's self-reported cost must agree
//     with an assignment-diff measurement taken around each request;
//   - completeness: on feasible aligned sequences, naive pecking order,
//     the reservation scheduler, and EDF must all keep feasible
//     schedules for the same job set;
//   - ablation sanity: both placement policies maintain all invariants.
package realloc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/naive"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestReportedCostsMatchAssignmentDiffs cross-validates the cost
// accounting of every scheduler against an external observer.
func TestReportedCostsMatchAssignmentDiffs(t *testing.T) {
	factories := map[string]func() sched.Scheduler{
		"core":  func() sched.Scheduler { return core.New() },
		"naive": func() sched.Scheduler { return naive.New() },
		"edf":   func() sched.Scheduler { return edf.New(1) },
		"multi": func() sched.Scheduler {
			return multi.New(3, func() sched.Scheduler { return core.New() })
		},
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			m := 1
			if name == "multi" {
				m = 3
			}
			g, err := workload.NewGenerator(workload.Config{
				Seed: 17, Machines: m, Gamma: 12, Horizon: 1024, Steps: 250,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := factory()
			before := s.Assignment()
			for i, r := range g.Sequence() {
				c, err := sched.Apply(s, r)
				if err != nil {
					t.Fatalf("request %d (%s): %v", i, r, err)
				}
				after := s.Assignment()
				moved, migrated := before.Diff(after)
				if r.Kind == jobs.Insert {
					moved++ // initial placement convention
				}
				if c.Reallocations != moved {
					t.Fatalf("request %d (%s): reported %d reallocations, observed %d",
						i, r, c.Reallocations, moved)
				}
				if c.Migrations != migrated {
					t.Fatalf("request %d (%s): reported %d migrations, observed %d",
						i, r, c.Migrations, migrated)
				}
				before = after
			}
		})
	}
}

// TestAllSchedulersStayFeasibleOnSameSequence replays one sequence
// through every scheduler and verifies all remain feasible with
// identical active sets.
func TestAllSchedulersStayFeasibleOnSameSequence(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{Seed: 23, Gamma: 8, Horizon: 2048, Steps: 400})
	if err != nil {
		t.Fatal(err)
	}
	seq := g.Sequence()
	schedulers := map[string]sched.Scheduler{
		"core":       core.New(),
		"naive":      naive.New(),
		"edf":        edf.New(1),
		"full-stack": New(),
	}
	for name, s := range schedulers {
		if _, err := sched.Run(s, seq, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), s.Machines()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// All schedulers that served the full sequence hold the same job set.
	want := len(schedulers["core"].Jobs())
	for _, name := range []string{"naive", "edf", "full-stack"} {
		if got := len(schedulers[name].Jobs()); got != want {
			t.Errorf("%s holds %d jobs, core holds %d", name, got, want)
		}
	}
}

// TestCoreSoundUnderChurn runs seeded churn through the reservation
// scheduler with the full invariant suite after every request.
func TestCoreSoundUnderChurn(t *testing.T) {
	f := func(seed int64) bool {
		g1, err := workload.NewGenerator(workload.Config{Seed: seed, Gamma: 8, Horizon: 1024, Steps: 150})
		if err != nil {
			return false
		}
		s := core.New()
		if _, err := sched.RunChecked(s, g1.Sequence(), nil); err != nil {
			return false
		}
		return s.VerifyLemma8() == nil && feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestNaiveVsCoreCostOrdering: on nested-cascade probes the reservation
// scheduler must beat the naive scheduler once Δ is large.
func TestNaiveVsCoreCostOrdering(t *testing.T) {
	const delta = 1 << 14
	fill := workload.NestedCascade(delta, 0)

	nv := naive.New()
	if _, err := sched.Run(nv, fill, nil); err != nil {
		t.Fatal(err)
	}
	cr := core.New(core.WithMaxIntervals(1 << 24))
	if _, err := sched.Run(cr, fill, nil); err != nil {
		t.Fatal(err)
	}
	worst := func(s sched.Scheduler) int {
		maxC := 0
		for p := 0; p < 20; p++ {
			name := fmt.Sprintf("probe%d", p)
			c, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: 0, End: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if c.Reallocations > maxC {
				maxC = c.Reallocations
			}
			if _, err := s.Delete(name); err != nil {
				t.Fatal(err)
			}
		}
		return maxC
	}
	nWorst, cWorst := worst(nv), worst(cr)
	if cWorst >= nWorst {
		t.Errorf("reservation worst %d not below naive worst %d at delta=%d", cWorst, nWorst, delta)
	}
	if nWorst < 10 {
		t.Errorf("naive worst %d suspiciously small (cascade not exercised)", nWorst)
	}
}
