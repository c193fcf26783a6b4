package alignsched

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/sched"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func job(name string, start, end int64) jobs.Job {
	return jobs.Job{Name: name, Window: win(start, end)}
}

func TestAlignsUnalignedWindows(t *testing.T) {
	s := New(core.New())
	// Window [3, 17) (span 14) -> largest aligned sub-window [8, 16).
	if _, err := s.Insert(job("a", 3, 17)); err != nil {
		t.Fatal(err)
	}
	p := s.Assignment()["a"]
	if p.Slot < 8 || p.Slot >= 16 {
		t.Errorf("slot %d outside aligned sub-window [8,16)", p.Slot)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	// Jobs() reports the original window.
	if got := s.Jobs()[0].Window; got != win(3, 17) {
		t.Errorf("Jobs() window %v", got)
	}
}

func TestRejections(t *testing.T) {
	s := New(core.New())
	if _, err := s.Insert(job("a", 0, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(job("a", 0, 8)); !errors.Is(err, sched.ErrDuplicateJob) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := s.Delete("ghost"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Errorf("unknown: %v", err)
	}
	if _, err := s.Insert(jobs.Job{Name: "neg", Window: win(-10, -2)}); err == nil {
		t.Error("pre-zero window accepted")
	}
}

func TestDelete(t *testing.T) {
	s := New(core.New())
	if _, err := s.Insert(job("a", 5, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if s.Active() != 0 {
		t.Error("job not deleted")
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// End-to-end Theorem 1 stack: align over multi over core, with unaligned
// windows and multiple machines.
func TestFullStackChurn(t *testing.T) {
	m := 3
	s := New(multi.New(m, func() sched.Scheduler { return core.New() }))
	rng := rand.New(rand.NewSource(7))
	active := []string{}
	id := 0
	for step := 0; step < 400; step++ {
		if len(active) > 40 && rng.Intn(2) == 0 {
			i := rng.Intn(len(active))
			if _, err := s.Delete(active[i]); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			active = append(active[:i], active[i+1:]...)
		} else {
			// Arbitrary unaligned windows over a 4096 horizon with generous
			// slack: spans 64..1024 and only ~60 active jobs on 3 machines.
			span := 64 + rng.Int63n(960)
			start := rng.Int63n(3000)
			name := fmt.Sprintf("u%d", id)
			id++
			if _, err := s.Insert(job(name, start, start+span)); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			active = append(active, name)
		}
		if step%20 == 0 {
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), m); err != nil {
		t.Fatal(err)
	}
}

// Property: the schedule always places jobs inside their ORIGINAL windows
// even though the inner scheduler only saw the aligned sub-windows.
func TestPlacementInOriginalWindowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(core.New())
		for i := 0; i < 30; i++ {
			span := 16 + rng.Int63n(200)
			start := rng.Int63n(2000)
			if _, err := s.Insert(job(fmt.Sprintf("p%d", i), start, start+span)); err != nil {
				return false
			}
		}
		asn := s.Assignment()
		for _, j := range s.Jobs() {
			if !j.Window.Contains(asn[j.Name].Slot) {
				return false
			}
		}
		return s.SelfCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
