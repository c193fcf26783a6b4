package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/align"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/sched"
)

// Spans exactly at the level thresholds: 32 (top of level 0), 64 (bottom
// of level 1), 256 (top of level 1), 512 (bottom of level 2).
func TestLevelBoundarySpans(t *testing.T) {
	s := New()
	boundaries := []struct {
		span      int64
		wantLevel int
	}{
		{32, 0}, {64, 1}, {256, 1}, {512, 2},
	}
	for i, b := range boundaries {
		name := fmt.Sprintf("b%d", i)
		mustInsert(t, s, jobs.Job{Name: name, Window: win(0, b.span)})
		if got := align.LevelOfSpan(b.span); got != b.wantLevel {
			t.Errorf("span %d at level %d, want %d", b.span, got, b.wantLevel)
		}
	}
	verifyFeasible(t, s)
	if err := s.VerifyLemma8(); err != nil {
		t.Fatal(err)
	}
	// Delete them in reverse.
	for i := len(boundaries) - 1; i >= 0; i-- {
		mustDelete(t, s, fmt.Sprintf("b%d", i))
	}
	if s.Active() != 0 {
		t.Error("jobs remain")
	}
}

// Jobs at large time offsets: the sparse page directory must not care
// where on the timeline windows sit.
func TestFarOffsets(t *testing.T) {
	s := New()
	base := int64(1) << 50
	for i := 0; i < 8; i++ {
		span := int64(64)
		start := base + int64(i)*span
		mustInsert(t, s, jobs.Job{Name: fmt.Sprintf("far%d", i), Window: win(start, start+span)})
	}
	// Plus one near zero.
	mustInsert(t, s, job("near", 0, 64))
	verifyFeasible(t, s)
	mustDelete(t, s, "far3")
	mustInsert(t, s, jobs.Job{Name: "far3b", Window: win(base, base+64)})
	verifyFeasible(t, s)
}

// Same window emptied and refilled repeatedly: window state persists with
// x=0 and must come back cleanly.
func TestWindowEmptyRefillCycles(t *testing.T) {
	s := New()
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 4; i++ {
			mustInsert(t, s, jobs.Job{Name: fmt.Sprintf("c%dj%d", cycle, i), Window: win(64, 128)})
		}
		if err := s.VerifyLemma8(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		for i := 0; i < 4; i++ {
			mustDelete(t, s, fmt.Sprintf("c%dj%d", cycle, i))
		}
	}
	if s.Active() != 0 {
		t.Error("jobs remain")
	}
	// Reservation state must be back to base-only everywhere.
	for _, st := range s.ReservationSnapshot() {
		t.Errorf("lingering snapshot entry for active window: %+v", st)
	}
}

// Base jobs pinned at every slot of a level-1 interval: the interval's
// allowance must shrink to zero and recover after deletions.
func TestAllowanceExhaustionAndRecovery(t *testing.T) {
	s := New()
	// One level-1 job first so its interval exists and holds reservations.
	mustInsert(t, s, job("wide", 0, 64))
	// Pin base jobs into slots 0..31 (the level-1 interval [0,32)).
	for i := int64(0); i < 32; i++ {
		mustInsert(t, s, jobs.Job{Name: fmt.Sprintf("pin%d", i), Window: win(i, i+1)})
	}
	verifyFeasible(t, s)
	// The wide job must have been pushed to [32, 64).
	if slot := s.Assignment()["wide"].Slot; slot < 32 {
		t.Errorf("wide job at %d, expected >= 32", slot)
	}
	// Free the first interval again.
	for i := int64(0); i < 32; i++ {
		mustDelete(t, s, fmt.Sprintf("pin%d", i))
	}
	verifyFeasible(t, s)
	if err := s.VerifyLemma8(); err != nil {
		t.Fatal(err)
	}
}

// Interleave base and level jobs at the same timeline region heavily and
// confirm feasibility against offline EDF at every tenth step.
func TestDenseInterleaving(t *testing.T) {
	s := New()
	id := 0
	insert := func(start, end int64) {
		t.Helper()
		mustInsert(t, s, jobs.Job{Name: fmt.Sprintf("d%d", id), Window: win(start, end)})
		id++
	}
	for round := 0; round < 6; round++ {
		insert(0, 512)                              // level 2
		insert(int64(round)*64, int64(round)*64+64) // level 1
		insert(int64(round)*8, int64(round)*8+8)    // level 0
		insert(int64(round), int64(round)+1)        // pinned base
		if !feasible.IsFeasible(s.Jobs(), 1) {
			t.Fatalf("round %d: infeasible active set (test bug)", round)
		}
		verifyFeasible(t, s)
	}
}

// TestDirectoryIsSparse puts base, level-1 and level-2 jobs (spans 8,
// 128, 2048) at 1<<61 next to the same jobs at 0, and again at 4096:
// the page directory materializes only the intervals the windows cover,
// and what the requests allocate does not grow with the start, as a
// dense, horizon-sized directory's would.
func TestDirectoryIsSparse(t *testing.T) {
	run := func(far int64) uint64 {
		for schedPool.Get() != nil { // a fresh scheduler, not a recycled one
		}
		s := New()
		var allocated uint64
		var before, after runtime.MemStats
		request := func(r jobs.Request) {
			t.Helper()
			runtime.ReadMemStats(&before)
			_, err := sched.Apply(s, r)
			runtime.ReadMemStats(&after)
			allocated += after.TotalAlloc - before.TotalAlloc
			if err != nil {
				t.Fatalf("start %d: %v: %v", far, r, err)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("start %d: after %v: %v", far, r, err)
			}
		}
		var names []string
		for _, start := range []int64{0, far} {
			for _, span := range []int64{8, 128, 2048} {
				name := fmt.Sprintf("s%d@%d", span, start)
				names = append(names, name)
				request(jobs.Request{Kind: jobs.Insert, Name: name, Window: win(start, start+span)})
			}
		}
		// Two level-1 windows of 4 intervals, two level-2 windows of 8.
		counted := 0
		for _, p := range s.livePages() {
			for range p.intervals() {
				counted++
			}
		}
		if got := s.Stats().Intervals; got != 24 || counted != 24 {
			t.Fatalf("start %d: Stats reports %d intervals, the pages hold %d, the windows cover 24", far, got, counted)
		}
		for _, name := range names {
			request(jobs.Request{Kind: jobs.Delete, Name: name})
		}
		return allocated
	}
	near, far := run(1<<12), run(1<<61)
	if far > 2*near {
		t.Fatalf("requests at 1<<61 allocate %d bytes, at 4096 %d: the directory is not sparse", far, near)
	}
	t.Logf("allocated %d bytes at 4096, %d at 1<<61", near, far)
}
