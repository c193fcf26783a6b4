package multi

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/naive"
	"repro/internal/sched"
	"repro/internal/workload"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func job(name string, start, end int64) jobs.Job {
	return jobs.Job{Name: name, Window: win(start, end)}
}

func coreFactory() sched.Scheduler { return core.New() }

func TestBalancedDelegation(t *testing.T) {
	s := New(3, coreFactory)
	for i := 0; i < 6; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	asn := s.Assignment()
	perMachine := make([]int, 3)
	for _, p := range asn {
		perMachine[p.Machine]++
	}
	for i, c := range perMachine {
		if c != 2 {
			t.Errorf("machine %d has %d jobs, want 2 (%v)", i, c, perMachine)
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), asn, 3); err != nil {
		t.Fatal(err)
	}
}

func TestAtMostOneMigrationPerRequest(t *testing.T) {
	s := New(4, coreFactory)
	for i := 0; i < 16; i++ {
		c, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 256))
		if err != nil {
			t.Fatal(err)
		}
		if c.Migrations != 0 {
			t.Errorf("insert %d migrated %d jobs", i, c.Migrations)
		}
	}
	// Delete in an order that forces rebalancing.
	for i := 0; i < 16; i++ {
		c, err := s.Delete(fmt.Sprintf("j%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if c.Migrations > 1 {
			t.Errorf("delete %d migrated %d jobs (Theorem 1 allows 1)", i, c.Migrations)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
}

func TestMigrationRestoresBalance(t *testing.T) {
	s := New(2, coreFactory)
	// 4 jobs with the same window: machines hold {j0,j2} and {j1,j3}.
	for i := 0; i < 4; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// Deleting j0 leaves {1, 2} — still within floor/ceil, no migration.
	c, err := s.Delete("j0")
	if err != nil {
		t.Fatal(err)
	}
	if c.Migrations != 0 {
		t.Errorf("balanced delete migrated %d jobs, want 0", c.Migrations)
	}
	// Deleting j2 empties machine 0 while machine 1 holds 2: one job must
	// migrate back to restore floor/ceil.
	c, err = s.Delete("j2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Migrations != 1 {
		t.Errorf("migrations = %d, want 1", c.Migrations)
	}
	per := make([]int, 2)
	for _, p := range s.Assignment() {
		per[p.Machine]++
	}
	if per[0] != 1 || per[1] != 1 {
		t.Errorf("post-delete balance %v, want [1 1]", per)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteFromFullestNoMigration(t *testing.T) {
	s := New(2, coreFactory)
	for i := 0; i < 3; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	// j2 sits on machine 0 (the fuller machine): deleting it needs no move.
	c, err := s.Delete("j2")
	if err != nil {
		t.Fatal(err)
	}
	if c.Migrations != 0 {
		t.Errorf("migrations = %d, want 0", c.Migrations)
	}
}

func TestRejections(t *testing.T) {
	s := New(2, coreFactory)
	if _, err := s.Insert(job("bad", 1, 3)); !errors.Is(err, sched.ErrMisaligned) {
		t.Errorf("misaligned: %v", err)
	}
	if _, err := s.Insert(job("a", 0, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(job("a", 0, 2)); !errors.Is(err, sched.ErrDuplicateJob) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := s.Delete("ghost"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Errorf("unknown: %v", err)
	}
}

func TestMachinesAccessor(t *testing.T) {
	if New(5, coreFactory).Machines() != 5 {
		t.Error("Machines() wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("m=0 accepted")
		}
	}()
	New(0, coreFactory)
}

// Random multi-machine churn with full invariant checking, against both
// inner scheduler types.
func TestRandomChurn(t *testing.T) {
	for _, m := range []int{2, 4} {
		for name, factory := range map[string]Factory{
			"core":  coreFactory,
			"naive": func() sched.Scheduler { return naive.New() },
		} {
			g, err := workload.NewGenerator(workload.Config{
				Seed: int64(m), Machines: m, Gamma: 12, Horizon: 1024, Steps: 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := New(m, factory)
			if _, err := sched.RunChecked(s, g.Sequence(), nil); err != nil {
				t.Fatalf("m=%d inner=%s: %v", m, name, err)
			}
			if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), m); err != nil {
				t.Fatalf("m=%d inner=%s: %v", m, name, err)
			}
		}
	}
}

// Property: per-request migrations never exceed 1, across seeds.
func TestMigrationBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := workload.NewGenerator(workload.Config{
			Seed: seed, Machines: 3, Gamma: 12, Horizon: 512, Steps: 150,
		})
		if err != nil {
			return false
		}
		s := New(3, coreFactory)
		for _, r := range g.Sequence() {
			c, err := sched.Apply(s, r)
			if err != nil || c.Migrations > 1 {
				return false
			}
		}
		return s.SelfCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Lemma 3 measured: when the overall instance is 6γ-underallocated, the
// per-machine instances the round-robin delegation produces are
// γ-underallocated.
func TestLemma3PerMachineUnderallocation(t *testing.T) {
	const m, gamma = 3, 4
	g, err := workload.NewGenerator(workload.Config{
		Seed: 77, Machines: m, Gamma: 6 * gamma, Horizon: 2048, Steps: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, coreFactory)
	if _, err := sched.Run(s, g.Sequence(), nil); err != nil {
		t.Fatal(err)
	}
	// Partition the active jobs by machine and check each single-machine
	// instance.
	perMachine := make([][]jobs.Job, m)
	asn := s.Assignment()
	for _, j := range s.Jobs() {
		mi := asn[j.Name].Machine
		perMachine[mi] = append(perMachine[mi], j)
	}
	for mi, js := range perMachine {
		if len(js) == 0 {
			continue
		}
		if !feasible.Underallocated(js, 1, gamma) {
			t.Errorf("machine %d instance not %d-underallocated (%d jobs): Lemma 3 violated",
				mi, gamma, len(js))
		}
	}
}

// TestSelfCheckCatchesStaleRecords corrupts one field of a window record
// or of the member links at a time and expects SelfCheck to notice each.
func TestSelfCheckCatchesStaleRecords(t *testing.T) {
	s := New(3, coreFactory)
	for i := 0; i < 7; i++ { // machines hold 3, 2 and 2 jobs of [0, 64)
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 64)); err != nil {
			t.Fatal(err)
		}
	}
	w := s.perWin[winKey{start: 0, span: 64}]
	head := w.head[0]
	second := s.next[head]
	if w.count[0] != 3 || second == 0 {
		t.Fatalf("machine 0 holds %d jobs of the window, want 3", w.count[0])
	}
	corruptions := []struct {
		name string
		flip func()
	}{
		{"count", func() { w.count[1]++ }},
		{"skew cap", func() { w.skewCap = 2 }},
		{"dangling link", func() { s.next[second] = w.head[1] }},
		{"back link", func() { s.prev[second] = 0 }},
		{"list head", func() { w.head[2] = 0 }},
		{"job window record", func() { s.win[head] = &winRec{key: w.key} }},
		{"machine index", func() { s.mach[second] = 1 }},
	}
	for _, c := range corruptions {
		saved := *w
		count, heads := append([]int32(nil), w.count...), append(w.head[:0:0], w.head...)
		next, prev := append(s.next[:0:0], s.next...), append(s.prev[:0:0], s.prev...)
		wins, mach := append([]*winRec(nil), s.win...), append([]int32(nil), s.mach...)
		c.flip()
		if err := s.SelfCheck(); err == nil {
			t.Errorf("SelfCheck passed with a corrupted %s", c.name)
		}
		*w = saved
		copy(w.count, count)
		copy(w.head, heads)
		copy(s.next, next)
		copy(s.prev, prev)
		copy(s.win, wins)
		copy(s.mach, mach)
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("restoring the %s: %v", c.name, err)
		}
	}
}
