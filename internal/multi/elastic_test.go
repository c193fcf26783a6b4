package multi

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/ident"
	"repro/internal/sched"
	"repro/internal/trim"
)

func TestAddMachinesMovesNothing(t *testing.T) {
	s := New(2, coreFactory)
	for i := 0; i < 6; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Assignment()
	if err := s.AddMachines(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Machines(); got != 4 {
		t.Fatalf("Machines() = %d, want 4", got)
	}
	after := s.Assignment()
	for name, p := range before {
		if after[name] != p {
			t.Errorf("grow moved %q: %+v -> %+v", name, p, after[name])
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after grow: %v", err)
	}
	// New inserts must prefer the empty machines.
	if _, err := s.Insert(job("j6", 0, 64)); err != nil {
		t.Fatal(err)
	}
	if m := s.Assignment()["j6"].Machine; m != 2 {
		t.Errorf("post-grow insert landed on machine %d, want 2 (emptiest)", m)
	}
	// Deletes repair the resize skew one migration at a time, never more.
	for i := 0; i < 6; i++ {
		c, err := s.Delete(fmt.Sprintf("j%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if c.Migrations > 1 {
			t.Errorf("delete j%d migrated %d jobs", i, c.Migrations)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after delete j%d: %v", i, err)
		}
	}
}

func TestRemoveMachinesBoundedMigrations(t *testing.T) {
	s := New(4, coreFactory)
	for i := 0; i < 12; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 256)); err != nil {
			t.Fatal(err)
		}
	}
	drained := 0
	s.names.Range(func(id ident.ID, _ string) bool {
		if int(s.mach[id]) >= 2 {
			drained++
		}
		return true
	})
	cost, evicted, err := s.RemoveMachines(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 0 {
		t.Fatalf("evicted %d jobs from an underallocated pool", len(evicted))
	}
	if cost.Migrations != drained {
		t.Errorf("migrations = %d, want exactly the %d drained jobs", cost.Migrations, drained)
	}
	if got := s.Machines(); got != 2 {
		t.Fatalf("Machines() = %d, want 2", got)
	}
	if got := s.Active(); got != 12 {
		t.Fatalf("Active() = %d, want 12", got)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after shrink: %v", err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 2); err != nil {
		t.Fatalf("schedule after shrink: %v", err)
	}
}

func TestRemoveMachinesEvictsWhatCannotFit(t *testing.T) {
	// The inner scheduler must survive the rejected re-placement attempt,
	// so use the trim wrapper (bare core poisons itself on rejection).
	s := New(2, func() sched.Scheduler {
		return trim.New(8, func() sched.Scheduler { return core.New() })
	})
	// Saturate both single-slot machines, then shrink: the drained job
	// cannot fit on the survivor and must come back evicted.
	for i := 0; i < 2; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	_, evicted, err := s.RemoveMachines(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted %d jobs, want 1", len(evicted))
	}
	if evicted[0].Name != "j1" {
		t.Errorf("evicted %q, want the drained machine's job j1", evicted[0].Name)
	}
	if got := s.Active(); got != 1 {
		t.Fatalf("Active() = %d, want 1", got)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestResizeValidation(t *testing.T) {
	s := New(2, coreFactory)
	if err := s.AddMachines(0); err == nil {
		t.Error("AddMachines(0) accepted")
	}
	if _, _, err := s.RemoveMachines(2); err == nil {
		t.Error("RemoveMachines leaving an empty pool accepted")
	}
	if _, _, err := s.RemoveMachines(0); err == nil {
		t.Error("RemoveMachines(0) accepted")
	}
}

// TestElasticChurn interleaves random churn with grows and shrinks and
// keeps every invariant checked: migrations per request <= 1, migrations
// per shrink <= drained jobs, schedule always feasible.
func TestElasticChurn(t *testing.T) {
	var _ sched.Elastic = (*Scheduler)(nil)
	s := New(3, coreFactory)
	rng := rand.New(rand.NewSource(9))
	var active []string
	id := 0
	for step := 0; step < 600; step++ {
		switch {
		case step%97 == 96 && s.Machines() < 6:
			if err := s.AddMachines(1); err != nil {
				t.Fatalf("step %d grow: %v", step, err)
			}
		case step%131 == 130 && s.Machines() > 2:
			onDoomed := 0
			s.names.Range(func(id ident.ID, _ string) bool {
				if int(s.mach[id]) == s.Machines()-1 {
					onDoomed++
				}
				return true
			})
			cost, evicted, err := s.RemoveMachines(1)
			if err != nil {
				t.Fatalf("step %d shrink: %v", step, err)
			}
			if cost.Migrations > onDoomed {
				t.Fatalf("step %d shrink: %d migrations for %d drained jobs", step, cost.Migrations, onDoomed)
			}
			for _, j := range evicted {
				for i, n := range active {
					if n == j.Name {
						active = append(active[:i], active[i+1:]...)
						break
					}
				}
			}
		case len(active) > 40 && rng.Intn(2) == 0:
			i := rng.Intn(len(active))
			c, err := s.Delete(active[i])
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			if c.Migrations > 1 {
				t.Fatalf("step %d delete migrated %d", step, c.Migrations)
			}
			active = append(active[:i], active[i+1:]...)
		default:
			name := fmt.Sprintf("e%04d", id)
			id++
			span := int64(1) << uint(3+rng.Intn(4)) // 8..64
			start := (rng.Int63n(1024 / span)) * span
			c, err := s.Insert(job(name, start, start+span))
			if err != nil {
				// A shrunken pool may genuinely be full; skip.
				continue
			}
			if c.Migrations != 0 {
				t.Fatalf("step %d insert migrated %d", step, c.Migrations)
			}
			active = append(active, name)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), s.Machines()); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if s.Active() == 0 {
		t.Fatal("churn ended with no active jobs — test exercised nothing")
	}
}

// TestRejectionDoesNotPoisonBareCore: with bare reservation cores (no
// trim wrapper, which no public constructor builds but multi.New
// accepts), a rejected insert poisons the core mid-request; multi must detect it (sched.Poisoner)
// and rebuild the machine so the retry paths that deliberately probe
// full machines — shard overflow, shrink eviction — keep working.
func TestRejectionDoesNotPoisonBareCore(t *testing.T) {
	s := New(1, coreFactory)
	if _, err := s.Insert(job("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	// Slot [0,1) is taken: this insert must fail...
	if _, err := s.Insert(job("b", 0, 1)); err == nil {
		t.Fatal("overfull insert accepted")
	}
	// ...and the machine must stay fully usable afterward.
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("machine poisoned by rejection: %v", err)
	}
	if _, err := s.Insert(job("c", 2, 4)); err != nil {
		t.Fatalf("insert after rejection: %v", err)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatalf("delete after rejection: %v", err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
		t.Fatal(err)
	}
	// Shrink eviction against bare cores: both machines full, the
	// drained job probes the survivor (rejection) and must come back
	// evicted with the survivor intact.
	s2 := New(2, coreFactory)
	for i := 0; i < 2; i++ {
		if _, err := s2.Insert(job(fmt.Sprintf("f%d", i), 0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	_, evicted, err := s2.RemoveMachines(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted %d, want 1", len(evicted))
	}
	if err := s2.SelfCheck(); err != nil {
		t.Fatalf("survivor poisoned by eviction probe: %v", err)
	}
}
