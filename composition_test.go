// Composition tests: every sensible stacking of the wrappers must behave
// as a correct reallocating scheduler under the same churn.
package realloc

import (
	"fmt"
	"testing"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/naive"
	"repro/internal/sched"
	"repro/internal/trim"
	"repro/internal/workload"
)

func coreF() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 24)) }

// Every composition under aligned churn.
func TestWrapperCompositions(t *testing.T) {
	comps := map[string]func() sched.Scheduler{
		"core": coreF,
		"trim(core)": func() sched.Scheduler {
			return trim.New(8, coreF)
		},
		"multi(core)": func() sched.Scheduler {
			return multi.New(3, coreF)
		},
		"multi(trim(core))": func() sched.Scheduler {
			return multi.New(3, func() sched.Scheduler { return trim.New(8, coreF) })
		},
		"align(multi(trim(core)))": func() sched.Scheduler {
			return alignsched.New(multi.New(3, func() sched.Scheduler { return trim.New(8, coreF) }))
		},
		"align(multi(trim(naive)))": func() sched.Scheduler {
			return alignsched.New(multi.New(3, func() sched.Scheduler {
				return trim.New(8, func() sched.Scheduler { return naive.New() })
			}))
		},
	}
	for name, factory := range comps {
		t.Run(name, func(t *testing.T) {
			m := 1
			s := factory()
			if s.Machines() > 1 {
				m = s.Machines()
			}
			g, err := workload.NewGenerator(workload.Config{
				Seed: 5, Machines: m, Gamma: 16, Horizon: 2048, MinSpan: 2, Steps: 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec, err2 := runAndSummarize(s, g.Sequence())
			if err2 != nil {
				t.Fatal(err2)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatal(err)
			}
			if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), m); err != nil {
				t.Fatal(err)
			}
			if rec.max > 40 {
				t.Errorf("worst request cost %d implausibly high for 300 requests", rec.max)
			}
			if s.Machines() > 1 && rec.maxMigr > 1 {
				t.Errorf("worst migrations %d > 1", rec.maxMigr)
			}
		})
	}
}

type runStats struct {
	max, maxMigr int
}

func runAndSummarize(s sched.Scheduler, reqs []jobs.Request) (runStats, error) {
	var st runStats
	for i, r := range reqs {
		c, err := sched.Apply(s, r)
		if err != nil {
			return st, fmt.Errorf("request %d (%s): %w", i, r, err)
		}
		if c.Reallocations > st.max {
			st.max = c.Reallocations
		}
		if c.Migrations > st.maxMigr {
			st.maxMigr = c.Migrations
		}
	}
	return st, nil
}
