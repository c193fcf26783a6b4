package trim

import (
	"errors"
	"fmt"
	"testing"

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

func TestTrimWindow(t *testing.T) {
	cases := []struct {
		w    jobs.Window
		cap  int64
		want jobs.Window
	}{
		{win(0, 64), 128, win(0, 64)}, // under cap: unchanged
		{win(0, 64), 64, win(0, 64)},  // at cap: unchanged
		{win(0, 128), 64, win(0, 64)}, // trimmed to leftmost
		{win(256, 512), 64, win(256, 320)},
	}
	for _, c := range cases {
		got := trimWindow(c.w, c.cap)
		if got != c.want {
			t.Errorf("trimWindow(%v, %d) = %v, want %v", c.w, c.cap, got, c.want)
		}
		if !got.IsAligned() {
			t.Errorf("trimWindow(%v, %d) = %v not aligned", c.w, c.cap, got)
		}
	}
}

func TestCapGrowsWithNStar(t *testing.T) {
	s := New(8, coreFactory)
	if s.nStar != 1 {
		t.Fatalf("initial n* = %d", s.nStar)
	}
	if s.Cap() != 16 { // CeilPow2(2*8*1)
		t.Fatalf("initial cap = %d", s.Cap())
	}
	for i := 0; i < 9; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 1<<40)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	// n = 9 forces n* to 16, cap = CeilPow2(2*8*16) = 256.
	if s.nStar != 16 || s.Cap() != 256 {
		t.Errorf("n* = %d cap = %d", s.nStar, s.Cap())
	}
	if s.Rebuilds() == 0 {
		t.Error("no rebuilds recorded")
	}
	// Every placement is inside a span-cap prefix of the original window.
	for name, p := range s.Assignment() {
		if p.Slot >= s.Cap() {
			t.Errorf("job %s at slot %d beyond cap window", name, p.Slot)
		}
	}
}

func TestHalving(t *testing.T) {
	s := New(2, coreFactory)
	for i := 0; i < 32; i++ {
		if _, err := s.Insert(job(fmt.Sprintf("j%d", i), 0, 4096)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	grew := s.nStar
	for i := 0; i < 30; i++ {
		if _, err := s.Delete(fmt.Sprintf("j%d", i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("after delete %d: %v", i, err)
		}
	}
	if s.nStar >= grew {
		t.Errorf("n* did not shrink: %d -> %d", grew, s.nStar)
	}
}

func TestRejections(t *testing.T) {
	s := New(8, coreFactory)
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

func TestJobsReportsOriginalWindows(t *testing.T) {
	s := New(8, coreFactory)
	orig := job("a", 0, 1<<30)
	if _, err := s.Insert(orig); err != nil {
		t.Fatal(err)
	}
	js := s.Jobs()
	if len(js) != 1 || js[0].Window != orig.Window {
		t.Errorf("Jobs() = %v", js)
	}
	// Schedule remains feasible against the original windows.
	if err := feasible.VerifySchedule(js, s.Assignment(), 1); err != nil {
		t.Fatal(err)
	}
}

// Amortization (E10 shape): total rebuild cost over a long grow-shrink
// run is O(total requests).
func TestAmortizedRebuildCost(t *testing.T) {
	s := New(8, coreFactory)
	total := 0
	requests := 0
	// Grow to 256 jobs, shrink to 0, twice.
	for round := 0; round < 2; round++ {
		for i := 0; i < 256; i++ {
			c, err := s.Insert(job(fmt.Sprintf("r%dj%d", round, i), 0, 1<<20))
			if err != nil {
				t.Fatal(err)
			}
			total += c.Reallocations
			requests++
		}
		for i := 0; i < 256; i++ {
			c, err := s.Delete(fmt.Sprintf("r%dj%d", round, i))
			if err != nil {
				t.Fatal(err)
			}
			total += c.Reallocations
			requests++
		}
	}
	// Amortized constant: generous ceiling of 8 reallocations/request.
	if total > 8*requests {
		t.Errorf("amortized cost %d over %d requests exceeds 8/request", total, requests)
	}
	if s.Rebuilds() < 8 {
		t.Errorf("expected many rebuilds, got %d", s.Rebuilds())
	}
}

func TestTrimOverNaive(t *testing.T) {
	// The wrapper is scheduler-agnostic: run it over the naive scheduler.
	s := New(4, func() sched.Scheduler { return naive.New() })
	g, err := workload.NewGenerator(workload.Config{Seed: 11, Gamma: 8, Horizon: 2048, Steps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunChecked(s, g.Sequence(), nil); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestTrimOverCoreChurn(t *testing.T) {
	s := New(8, coreFactory)
	g, err := workload.NewGenerator(workload.Config{Seed: 23, Gamma: 16, Horizon: 4096, Steps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunChecked(s, g.Sequence(), nil); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 1); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnBadGamma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("gamma 0 accepted")
		}
	}()
	New(0, coreFactory)
}
