package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/feasible"
	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func job(name string, start, end int64) jobs.Job {
	return jobs.Job{Name: name, Window: win(start, end)}
}

func mustInsert(t *testing.T, s *Scheduler, j jobs.Job) metrics.Cost {
	t.Helper()
	c, err := s.Insert(j)
	if err != nil {
		t.Fatalf("insert %v: %v", j, err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("after insert %v: %v", j, err)
	}
	return c
}

func mustDelete(t *testing.T, s *Scheduler, name string) metrics.Cost {
	t.Helper()
	c, err := s.Delete(name)
	if err != nil {
		t.Fatalf("delete %q: %v", name, err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("after delete %q: %v", name, err)
	}
	return c
}

func verifyFeasible(t *testing.T, s *Scheduler) {
	t.Helper()
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
		t.Fatal(err)
	}
}

// --- basic behavior ---------------------------------------------------

func TestBaseLevelInsertDelete(t *testing.T) {
	s := New()
	c := mustInsert(t, s, job("a", 0, 4)) // span 4: level 0
	if c.Reallocations != 1 {
		t.Errorf("cost = %+v", c)
	}
	verifyFeasible(t, s)
	mustDelete(t, s, "a")
	if s.Active() != 0 {
		t.Error("job not removed")
	}
}

func TestLevel1InsertDelete(t *testing.T) {
	s := New()
	c := mustInsert(t, s, job("a", 0, 64)) // span 64: level 1
	if c.Reallocations != 1 {
		t.Errorf("cost = %+v", c)
	}
	verifyFeasible(t, s)
	if err := s.VerifyLemma8(); err != nil {
		t.Fatal(err)
	}
	mustDelete(t, s, "a")
	if s.Active() != 0 {
		t.Error("job not removed")
	}
	if err := s.VerifyLemma8(); err != nil {
		t.Fatal(err)
	}
}

func TestLevel2InsertDelete(t *testing.T) {
	s := New()
	c := mustInsert(t, s, job("a", 0, 1024)) // span 1024: level 2
	if c.Reallocations != 1 {
		t.Errorf("cost = %+v", c)
	}
	verifyFeasible(t, s)
	mustDelete(t, s, "a")
}

func TestRejections(t *testing.T) {
	s := New()
	if _, err := s.Insert(job("a", 1, 3)); !errors.Is(err, sched.ErrMisaligned) {
		t.Errorf("misaligned: %v", err)
	}
	mustInsert(t, s, job("a", 0, 2))
	if _, err := s.Insert(job("a", 0, 2)); !errors.Is(err, sched.ErrDuplicateJob) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := s.Delete("nope"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Errorf("unknown: %v", err)
	}
	if _, err := s.Insert(jobs.Job{Name: "", Window: win(0, 2)}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestIntervalCap(t *testing.T) {
	s := New(WithMaxIntervals(4))
	// span 1024 at level 2 has 1024/256 = 4 intervals: allowed.
	mustInsert(t, s, job("ok", 0, 1024))
	// span 2048 has 8 intervals: rejected without poisoning.
	if _, err := s.Insert(job("big", 0, 2048)); err == nil {
		t.Fatal("cap not enforced")
	}
	mustInsert(t, s, job("still-works", 0, 64))
}

func TestManyJobsSameWindow(t *testing.T) {
	s := New()
	// 8 jobs in a span-64 level-1 window: 8-underallocated exactly.
	for i := 0; i < 8; i++ {
		mustInsert(t, s, job(fmt.Sprintf("j%d", i), 0, 64))
		if err := s.VerifyLemma8(); err != nil {
			t.Fatal(err)
		}
	}
	verifyFeasible(t, s)
	for i := 0; i < 8; i++ {
		mustDelete(t, s, fmt.Sprintf("j%d", i))
	}
}

func TestMixedLevels(t *testing.T) {
	s := New()
	// A level-2 job, level-1 jobs, and base jobs interleaved in [0, 512).
	mustInsert(t, s, job("big", 0, 512))
	for i := 0; i < 4; i++ {
		mustInsert(t, s, job(fmt.Sprintf("mid%d", i), 0, 128))
	}
	for i := 0; i < 4; i++ {
		mustInsert(t, s, job(fmt.Sprintf("small%d", i), 0, 32))
	}
	for i := 0; i < 4; i++ {
		mustInsert(t, s, job(fmt.Sprintf("tiny%d", i), int64(i), int64(i)+1))
	}
	verifyFeasible(t, s)
	if err := s.VerifyLemma8(); err != nil {
		t.Fatal(err)
	}
	// Delete in a different order than insertion.
	for _, name := range []string{"mid1", "tiny0", "big", "small3", "mid0"} {
		mustDelete(t, s, name)
	}
	verifyFeasible(t, s)
}

// Base jobs displace higher-level jobs (pecking order), never vice versa.
func TestPeckingOrderDisplacement(t *testing.T) {
	s := New()
	// Fill [0, 2) with a level-1 job pinned there... a span-64 job can sit
	// anywhere in [0, 64); force contention with base jobs instead.
	mustInsert(t, s, job("long", 0, 64))
	longSlot := s.Assignment()["long"].Slot
	// A span-1 base job aimed exactly at the long job's slot must displace it.
	c := mustInsert(t, s, job("tiny", longSlot, longSlot+1))
	if got := s.Assignment()["tiny"].Slot; got != longSlot {
		t.Errorf("tiny at %d, want %d", got, longSlot)
	}
	if s.Assignment()["long"].Slot == longSlot {
		t.Error("long job not displaced")
	}
	// Cost: tiny placed (1) + long re-placed (1) = 2.
	if c.Reallocations != 2 {
		t.Errorf("cost = %+v, want 2", c)
	}
	verifyFeasible(t, s)
}

func TestPoisoningAfterInfeasible(t *testing.T) {
	s := New()
	mustInsert(t, s, job("a", 0, 1))
	if _, err := s.Insert(job("b", 0, 1)); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("expected infeasible, got %v", err)
	}
	// Scheduler is poisoned: all further operations fail fast.
	if _, err := s.Insert(job("c", 4, 8)); err == nil {
		t.Error("poisoned scheduler accepted insert")
	}
	if _, err := s.Delete("a"); err == nil {
		t.Error("poisoned scheduler accepted delete")
	}
	if err := s.SelfCheck(); err == nil {
		t.Error("poisoned scheduler passed SelfCheck")
	}
}

func TestStats(t *testing.T) {
	s := New()
	mustInsert(t, s, job("a", 0, 64))
	st := s.Stats()
	if st.ActiveJobs != 1 || st.SlotsInUse != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Intervals == 0 || st.Windows == 0 {
		t.Errorf("stats did not count reservation state: %+v", st)
	}
}

// --- randomized validation against invariants and feasibility ----------

func TestRandomChurnAllInvariants(t *testing.T) {
	for _, horizon := range []int64{256, 1024, 4096} {
		g, err := workload.NewGenerator(workload.Config{
			Seed: horizon, Gamma: 8, Horizon: horizon, Steps: 400,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := New()
		for i := 0; i < 400; i++ {
			r := g.Next()
			if _, err := sched.Apply(s, r); err != nil {
				t.Fatalf("horizon %d request %d (%s): %v", horizon, i, r, err)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("horizon %d request %d (%s): %v", horizon, i, r, err)
			}
			if err := s.VerifyLemma8(); err != nil {
				t.Fatalf("horizon %d request %d (%s): %v", horizon, i, r, err)
			}
		}
		verifyFeasible(t, s)
	}
}

// Theorem 1 empirical envelope: on 8-underallocated aligned sequences,
// per-request reallocation cost stays bounded by a small constant times
// log*(Δ). With three levels the analytic bound is a constant; we assert
// a conservative ceiling and that the mean stays small.
func TestCostEnvelope(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 99, Gamma: 8, Horizon: 8192, Steps: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	rec := metrics.NewRecorder()
	if _, err := sched.Run(s, g.Sequence(), rec); err != nil {
		t.Fatal(err)
	}
	sum := rec.Summary()
	const ceiling = 24 // O(1) per level x 3 levels, generous constant
	if sum.MaxReallocations > ceiling {
		t.Errorf("max per-request cost %d exceeds ceiling %d (%s)", sum.MaxReallocations, ceiling, sum)
	}
	if sum.MeanReallocations > 4 {
		t.Errorf("mean per-request cost %.2f implausibly high (%s)", sum.MeanReallocations, sum)
	}
	if sum.MaxMigrations != 0 {
		t.Errorf("single-machine scheduler migrated jobs: %s", sum)
	}
}

// Property: random underallocated churn with per-step invariant checking
// across many seeds.
func TestChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := workload.NewGenerator(workload.Config{
			Seed: seed, Gamma: 8, Horizon: 512, Steps: 120,
		})
		if err != nil {
			return false
		}
		s := New()
		if _, err := sched.RunChecked(s, g.Sequence(), nil); err != nil {
			return false
		}
		return feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1) == nil &&
			s.VerifyLemma8() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Observation 7: the fulfilled/waitlisted reservation state depends only
// on the active job multiset, not on the request history.
func TestHistoryIndependence(t *testing.T) {
	final := []jobs.Job{
		job("a", 0, 64), job("b", 0, 64), job("c", 64, 128),
		job("d", 0, 128), job("e", 0, 512), job("f", 256, 512),
		job("g", 0, 32), job("h", 32, 64), job("i", 4, 8),
	}

	// History 1: plain insertion in order.
	s1 := New()
	for _, j := range final {
		mustInsert(t, s1, j)
	}

	// History 2: reversed order with interleaved transient jobs.
	s2 := New()
	mustInsert(t, s2, job("tmp1", 0, 256))
	for i := len(final) - 1; i >= 0; i-- {
		mustInsert(t, s2, final[i])
		if i == 4 {
			mustInsert(t, s2, job("tmp2", 128, 256))
			mustDelete(t, s2, "tmp1")
		}
	}
	mustDelete(t, s2, "tmp2")

	snap1, snap2 := s1.ReservationSnapshot(), s2.ReservationSnapshot()
	if len(snap1) != len(snap2) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(snap1), len(snap2))
	}
	for i := range snap1 {
		if snap1[i] != snap2[i] {
			t.Errorf("snapshot[%d] differs:\n h1: %+v\n h2: %+v", i, snap1[i], snap2[i])
		}
	}
}

// Property form of Observation 7 on random multisets.
func TestHistoryIndependenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g, err := workload.NewGenerator(workload.Config{
			Seed: seed, Gamma: 8, Horizon: 1024, Steps: 150,
		})
		if err != nil {
			return false
		}
		s1 := New()
		if _, err := sched.Run(s1, g.Sequence(), nil); err != nil {
			return false
		}
		// Rebuild the final multiset directly, in shuffled order.
		finalJobs := g.Active()
		rng := rand.New(rand.NewSource(seed ^ 0x5ee1))
		rng.Shuffle(len(finalJobs), func(i, k int) {
			finalJobs[i], finalJobs[k] = finalJobs[k], finalJobs[i]
		})
		s2 := New()
		for _, j := range finalJobs {
			if _, err := s2.Insert(j); err != nil {
				return false
			}
		}
		snap1, snap2 := s1.ReservationSnapshot(), s2.ReservationSnapshot()
		if len(snap1) != len(snap2) {
			return false
		}
		for i := range snap1 {
			if snap1[i] != snap2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Deleting and reinserting the same multiset returns to an equivalent
// reservation state (a consequence of history independence).
func TestDeleteRestoresState(t *testing.T) {
	s := New()
	base := []jobs.Job{job("a", 0, 64), job("b", 64, 128), job("c", 0, 256)}
	for _, j := range base {
		mustInsert(t, s, j)
	}
	before := s.ReservationSnapshot()
	mustInsert(t, s, job("x", 0, 64))
	mustInsert(t, s, job("y", 0, 1024))
	mustDelete(t, s, "y")
	mustDelete(t, s, "x")
	after := s.ReservationSnapshot()
	if len(before) != len(after) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("state[%d] differs: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// Tight-but-sufficient slack: fill windows to exactly the 8-underallocated
// budget at several nesting depths and verify everything still works.
func TestTightUnderallocationBudget(t *testing.T) {
	s := New()
	id := 0
	add := func(start, end int64, n int) {
		for i := 0; i < n; i++ {
			mustInsert(t, s, job(fmt.Sprintf("t%d", id), start, end))
			id++
		}
	}
	// Budget m|W|/8: span 512 -> 64 jobs total inside. Allocate hierarchically:
	add(0, 64, 8)    // uses full budget of [0,64)
	add(64, 128, 8)  // full budget of [64,128)
	add(128, 256, 8) // half budget of [128,256)
	add(0, 512, 16)  // brings [0,512) to 8+8+8+16 = 40 <= 64
	verifyFeasible(t, s)
	if err := s.VerifyLemma8(); err != nil {
		t.Fatal(err)
	}
	// Churn at the boundary.
	for i := 0; i < 8; i++ {
		mustDelete(t, s, fmt.Sprintf("t%d", i))
		mustInsert(t, s, job(fmt.Sprintf("r%d", i), 0, 64))
	}
	verifyFeasible(t, s)
}

func TestInterfaceCompliance(t *testing.T) {
	var _ sched.Scheduler = New()
	s := New()
	if s.Machines() != 1 {
		t.Error("machines != 1")
	}
	if got := len(s.Jobs()); got != 0 {
		t.Errorf("empty scheduler has %d jobs", got)
	}
}

// Stats reports coarse internal statistics.
type Stats struct {
	ActiveJobs int
	Windows    int
	Intervals  int
	SlotsInUse int
}

// Stats returns current internal statistics, recounted from the live
// pages.
func (s *Scheduler) Stats() Stats {
	st := Stats{ActiveJobs: s.active}
	for _, p := range s.livePages() {
		for _, id := range p.occ {
			if id != ident.None {
				st.SlotsInUse++
			}
		}
		for range p.intervals() {
			st.Intervals++
		}
		for range p.windows() {
			st.Windows++
		}
	}
	return st
}
