package edf

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/workload"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func job(name string, start, end int64) jobs.Job {
	return jobs.Job{Name: name, Window: win(start, end)}
}

func TestBasicInsertDelete(t *testing.T) {
	s := New(1)
	c, err := s.Insert(job("a", 0, 4))
	if err != nil {
		t.Fatal(err)
	}
	if c.Reallocations != 1 {
		t.Errorf("cost = %+v", c)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if s.Active() != 0 {
		t.Error("not deleted")
	}
}

func TestInfeasibleRollsBack(t *testing.T) {
	s := New(1)
	if _, err := s.Insert(job("a", 0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(job("b", 0, 1)); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	// Unlike core, EDF-recompute can roll back trivially.
	if s.Active() != 1 {
		t.Errorf("active = %d", s.Active())
	}
	if _, err := s.Insert(job("c", 4, 8)); err != nil {
		t.Errorf("scheduler unusable after rejected insert: %v", err)
	}
}

func TestRejections(t *testing.T) {
	s := New(2)
	if _, err := s.Insert(job("a", 0, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(job("a", 0, 8)); !errors.Is(err, sched.ErrDuplicateJob) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := s.Delete("ghost"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Errorf("unknown: %v", err)
	}
}

// The brittleness the paper describes: n jobs sharing a big window are
// packed in deadline order; inserting one job with an earlier deadline
// shifts every one of them, Θ(n) reallocations despite 2-underallocation.
func TestFrontInsertCascade(t *testing.T) {
	s := New(1)
	const n = 64
	for i := 0; i < n; i++ {
		// Jobs with staggered deadlines: job i has window [0, 2n + i + 1).
		if _, err := s.Insert(job(fmt.Sprintf("j%03d", i), 0, int64(2*n+i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// All n jobs sit in slots 0..n-1 in deadline order.
	c, err := s.Insert(job("urgent", 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Reallocations < n/2 {
		t.Errorf("front insert moved only %d jobs; EDF brittleness should move ~%d", c.Reallocations, n)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestMultiMachine(t *testing.T) {
	s := New(3)
	for i := 0; i < 9; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 3)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 3); err != nil {
		t.Fatal(err)
	}
}

func TestRandomChurnStaysFeasible(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{Seed: 5, Gamma: 4, Horizon: 512, Steps: 300})
	if err != nil {
		t.Fatal(err)
	}
	s := New(1)
	if _, err := sched.RunChecked(s, g.Sequence(), nil); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
		t.Fatal(err)
	}
}

// Deadline ties go to the earlier arrival, then to the smaller name.
func TestTieBreak(t *testing.T) {
	s := New(1)
	// x takes slot 0. At slot 1, z (arrived at 0) and a and b (arrived at
	// 1) tie on deadline 4: z goes first, then a before b by name.
	for _, j := range []jobs.Job{job("x", 0, 1), job("z", 0, 4), job("a", 1, 4), job("b", 1, 4)} {
		if _, err := s.Insert(j); err != nil {
			t.Fatal(err)
		}
	}
	asn := s.Assignment()
	if asn["z"].Slot != 1 || asn["a"].Slot != 2 || asn["b"].Slot != 3 {
		t.Errorf("tie-break order wrong: %v", asn)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 accepted")
		}
	}()
	New(0)
}
