package sized

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jobs"
	"repro/internal/mathx"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func TestValidate(t *testing.T) {
	cases := []struct {
		j  Job
		ok bool
	}{
		{Job{Name: "a", Size: 4, Window: win(0, 16)}, true},
		{Job{Name: "", Size: 4, Window: win(0, 16)}, false},
		{Job{Name: "a", Size: 3, Window: win(0, 16)}, false},  // non-pow2 size
		{Job{Name: "a", Size: 4, Window: win(1, 17)}, false},  // misaligned window
		{Job{Name: "a", Size: 32, Window: win(0, 16)}, false}, // window too small
	}
	for _, c := range cases {
		err := c.j.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v", c.j, err)
		}
	}
}

func TestInsertDeleteBasic(t *testing.T) {
	s := New()
	c, err := s.Insert(Job{Name: "a", Size: 4, Window: win(0, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Reallocations != 1 {
		t.Errorf("cost %+v", c)
	}
	p, ok := s.jobs["a"]
	if !ok || p.block%4 != 0 {
		t.Errorf("placement %+v, %v", p, ok)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if len(s.jobs) != 0 {
		t.Error("not deleted")
	}
}

func TestBlockAlignment(t *testing.T) {
	s := New()
	// A unit job at slot 2 blocks the size-4 block [0,4) but not [4,8).
	if _, err := s.Insert(Job{Name: "u", Size: 1, Window: win(2, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(Job{Name: "big", Size: 4, Window: win(0, 8)}); err != nil {
		t.Fatal(err)
	}
	if b := s.jobs["big"].block; b != 4 {
		t.Errorf("big at %d, want 4", b)
	}
}

func TestEvictionOfSmallerJobs(t *testing.T) {
	s := New()
	// Unit jobs across [0, 8) with wide windows; a size-8 job evicts them.
	for i := int64(0); i < 4; i++ {
		if _, err := s.Insert(Job{Name: fmt.Sprintf("u%d", i), Size: 1, Window: win(0, 32)}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Insert(Job{Name: "big", Size: 8, Window: win(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	// Evicted units that were inside [0,8) are relocated: cost = 1 + moved.
	if c.Reallocations < 2 {
		t.Errorf("cost %+v, expected evictions", c)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestNeverEvictsEqualOrLarger(t *testing.T) {
	s := New()
	if _, err := s.Insert(Job{Name: "a", Size: 4, Window: win(0, 4)}); err != nil {
		t.Fatal(err)
	}
	// Another size-4 job confined to the same block must fail, not evict.
	_, err := s.Insert(Job{Name: "b", Size: 4, Window: win(0, 4)})
	if err == nil || !strings.Contains(err.Error(), "no block") {
		t.Errorf("err = %v", err)
	}
}

func TestRelocationFailureReported(t *testing.T) {
	s := New()
	// Fill every slot of [0,4) with unit jobs pinned to their slots.
	for i := int64(0); i < 4; i++ {
		if _, err := s.Insert(Job{Name: fmt.Sprintf("p%d", i), Size: 1,
			Window: win(i, i+1)}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Insert(Job{Name: "big", Size: 4, Window: win(0, 4)})
	if err == nil {
		t.Error("impossible insert accepted")
	}
}

func TestDuplicateAndUnknown(t *testing.T) {
	s := New()
	if _, err := s.Insert(Job{Name: "a", Size: 1, Window: win(0, 2)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(Job{Name: "a", Size: 1, Window: win(0, 2)}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := s.Delete("ghost"); err == nil {
		t.Error("unknown delete accepted")
	}
}

// The headline result: per-slide cost is O(k) (upper bound) while
// per-sweep cost is Ω(k) (Observation 13 lower bound) — matching bounds
// for the power-of-two regime.
func TestRunSlideMatchingBounds(t *testing.T) {
	for _, k := range []int64{4, 16, 64} {
		res, err := RunSlide(k, 2, 4)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.MinSweepCost < int(k) {
			t.Errorf("k=%d: min sweep cost %d below Ω(k)", k, res.MinSweepCost)
		}
		// O(k) upper bound: one slide touches at most k unit jobs plus the
		// big job itself.
		if res.MaxSlideCost > int(k)+1 {
			t.Errorf("k=%d: max slide cost %d exceeds O(k) bound %d", k, res.MaxSlideCost, k+1)
		}
	}
}

func TestRunSlideBadParams(t *testing.T) {
	if _, err := RunSlide(3, 2, 1); err == nil {
		t.Error("non-pow2 k accepted")
	}
	if _, err := RunSlide(4, 0, 1); err == nil {
		t.Error("gamma 0 accepted")
	}
}

// Property: random mixed-size churn keeps all invariants.
func TestRandomMixedChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var names []string
		id := 0
		for step := 0; step < 120; step++ {
			if len(names) > 20 && rng.Intn(2) == 0 {
				i := rng.Intn(len(names))
				if _, err := s.Delete(names[i]); err != nil {
					return false
				}
				names = append(names[:i], names[i+1:]...)
				continue
			}
			size := int64(1) << uint(rng.Intn(4)) // 1..8
			spanExp := uint(rng.Intn(3)) + uint(mathx.Log2Exact(size)) + 2
			span := int64(1) << spanExp
			start := mathx.AlignDown(rng.Int63n(512), span)
			name := fmt.Sprintf("m%d", id)
			id++
			_, err := s.Insert(Job{Name: name, Size: size, Window: win(start, start+span)})
			if err != nil {
				continue // tight random instance: fine
			}
			names = append(names, name)
			if s.SelfCheck() != nil {
				return false
			}
		}
		return s.SelfCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
