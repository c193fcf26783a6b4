package trim

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/workload"
)

// stormSequence builds the adversarial threshold walk for one machine
// over the horizon: the population marches across the n*
// doubling/halving thresholds every cycle.
func stormSequence(tb testing.TB, horizon int64) []jobs.Request {
	tb.Helper()
	reqs, err := workload.Adversarial(workload.AdversarialConfig{
		Seed: 17, Machines: 1, Gamma: 8, Horizon: horizon, Cycles: 6,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return reqs
}

// BenchmarkThresholdWalk measures trim over the core on the threshold
// walk, where every n* crossing rebuilds a fresh core: its cost is
// materializing pages, intervals and windows. One op is one request;
// the walk replays on a fresh trim when it runs out. 20000 ops cross
// well over four thresholds.
func BenchmarkThresholdWalk(b *testing.B) {
	reqs := stormSequence(b, 1<<14)
	var s *Scheduler
	rebuilds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(reqs)
		if k == 0 {
			if s != nil {
				rebuilds += s.Rebuilds()
			}
			s = New(8, func() sched.Scheduler { return core.New() })
		}
		if _, err := sched.Apply(s, reqs[k]); err != nil {
			b.Fatalf("request %d (%s): %v", k, reqs[k], err)
		}
	}
	b.StopTimer()
	if rebuilds += s.Rebuilds(); b.N >= 20000 && rebuilds < 4 {
		b.Fatalf("%d requests crossed only %d n* thresholds", b.N, rebuilds)
	}
}

// TestThresholdStormTrim replays the adversarial walk through the
// amortized trim layer: every wave must force rebuilds, and the storm
// must never leave the scheduler poisoned or out of sync with its
// active set.
func TestThresholdStormTrim(t *testing.T) {
	reqs := stormSequence(t, 1024)
	s := New(8, func() sched.Scheduler { return core.New() })
	live := 0
	for i, r := range reqs {
		if _, err := sched.Apply(s, r); err != nil {
			t.Fatalf("request %d (%s) failed on an underallocated stream: %v", i, r, err)
		}
		if r.Kind == jobs.Insert {
			live++
		} else {
			live--
		}
		if i%97 == 0 {
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("self-check after request %d: %v", i, err)
			}
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("final self-check: %v", err)
	}
	if s.Active() != live {
		t.Fatalf("active = %d, replay says %d live jobs", s.Active(), live)
	}
	// Each of the 6 cycles crosses the doubling threshold on the way up
	// and the halving threshold on the way down, so the storm must have
	// paid well over one rebuild per cycle.
	if s.Rebuilds() < 12 {
		t.Errorf("only %d rebuilds — the walk should force >= 2 per cycle", s.Rebuilds())
	}
	// Not poisoned: a fresh insert and delete still work.
	if _, err := s.Insert(jobs.Job{Name: "post-storm", Window: jobs.Window{Start: 0, End: 1024}}); err != nil {
		t.Fatalf("insert after storm: %v", err)
	}
	if _, err := s.Delete("post-storm"); err != nil {
		t.Fatalf("delete after storm: %v", err)
	}
}

// TestStormPoisonedRecovery drives trim across its doubling threshold
// with an insert that turns out infeasible for the inner scheduler:
// the layer must reject exactly that job, restore the previous state,
// and keep serving.
func TestStormPoisonedRecovery(t *testing.T) {
	s := New(1, func() sched.Scheduler { return core.New() })
	if _, err := s.Insert(jobs.Job{Name: "a", Window: jobs.Window{Start: 0, End: 1}}); err != nil {
		t.Fatal(err)
	}
	// Same unit window on one machine: infeasible no matter how the
	// trim layer resizes around it. The attempt crosses n* (1 -> 2), so
	// the rejection exercises the rebuild-then-recover path.
	if _, err := s.Insert(jobs.Job{Name: "b", Window: jobs.Window{Start: 0, End: 1}}); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("self-check after rejected insert: %v", err)
	}
	if s.Active() != 1 {
		t.Fatalf("active = %d after recovery, want 1", s.Active())
	}
	if _, err := s.Insert(jobs.Job{Name: "c", Window: jobs.Window{Start: 1, End: 2}}); err != nil {
		t.Fatalf("insert after recovery: %v", err)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatalf("delete after recovery: %v", err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("final self-check: %v", err)
	}
}
