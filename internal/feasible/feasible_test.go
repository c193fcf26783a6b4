package feasible

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/jobs"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func job(name string, start, end int64) jobs.Job {
	return jobs.Job{Name: name, Window: win(start, end)}
}

func TestEDFSimple(t *testing.T) {
	js := []jobs.Job{job("a", 0, 2), job("b", 0, 2), job("c", 1, 3)}
	a, ok := EDF(js, 1)
	if !ok {
		t.Fatal("feasible set declared infeasible")
	}
	if err := VerifySchedule(js, a, 1); err != nil {
		t.Fatal(err)
	}
}

func TestEDFInfeasible(t *testing.T) {
	js := []jobs.Job{job("a", 0, 1), job("b", 0, 1)}
	if _, ok := EDF(js, 1); ok {
		t.Error("two jobs in one slot declared feasible")
	}
	// Same set is feasible on two machines.
	a, ok := EDF(js, 2)
	if !ok {
		t.Fatal("feasible on m=2 declared infeasible")
	}
	if err := VerifySchedule(js, a, 2); err != nil {
		t.Fatal(err)
	}
}

func TestEDFGapsInArrivals(t *testing.T) {
	js := []jobs.Job{job("a", 0, 1), job("b", 1000, 1001)}
	a, ok := EDF(js, 1)
	if !ok {
		t.Fatal("sparse set infeasible")
	}
	if a["a"].Slot != 0 || a["b"].Slot != 1000 {
		t.Errorf("placements %v", a)
	}
}

func TestEDFTightChain(t *testing.T) {
	// n jobs with window [i, i+2): feasible exactly (Lemma 12's base set).
	var js []jobs.Job
	for i := 0; i < 50; i++ {
		js = append(js, job(name(i), int64(i), int64(i)+2))
	}
	a, ok := EDF(js, 1)
	if !ok {
		t.Fatal("chain infeasible")
	}
	if err := VerifySchedule(js, a, 1); err != nil {
		t.Fatal(err)
	}
	// Adding a forced job at [0,1) is still feasible...
	js2 := append(append([]jobs.Job{}, js...), job("x", 0, 1))
	if _, ok := EDF(js2, 1); !ok {
		t.Fatal("chain+x infeasible, should be feasible")
	}
	// ...but one more job inside [0, 2) is not (3 jobs, 2 slots).
	js3 := append(append([]jobs.Job{}, js2...), job("y", 0, 2))
	if _, ok := EDF(js3, 1); ok {
		t.Error("overfull chain declared feasible")
	}
}

func TestEDFEmpty(t *testing.T) {
	a, ok := EDF(nil, 3)
	if !ok || len(a) != 0 {
		t.Error("empty set mishandled")
	}
}

func TestVerifyScheduleCatchesErrors(t *testing.T) {
	js := []jobs.Job{job("a", 0, 2), job("b", 0, 2)}
	good := jobs.Assignment{"a": {Machine: 0, Slot: 0}, "b": {Machine: 0, Slot: 1}}
	if err := VerifySchedule(js, good, 1); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	cases := map[string]jobs.Assignment{
		"missing job":    {"a": {Machine: 0, Slot: 0}},
		"outside window": {"a": {Machine: 0, Slot: 5}, "b": {Machine: 0, Slot: 1}},
		"slot clash":     {"a": {Machine: 0, Slot: 0}, "b": {Machine: 0, Slot: 0}},
		"bad machine":    {"a": {Machine: 1, Slot: 0}, "b": {Machine: 0, Slot: 1}},
	}
	for name, a := range cases {
		if err := VerifySchedule(js, a, 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	extra := jobs.Assignment{"a": {Machine: 0, Slot: 0}, "b": {Machine: 0, Slot: 1}, "c": {Machine: 0, Slot: 3}}
	if err := VerifySchedule(js, extra, 1); err == nil {
		t.Error("extra placement accepted")
	}
}

func TestUnderallocated(t *testing.T) {
	// 2 jobs in a window of 8 slots: 4-underallocated but not 8-.
	js := []jobs.Job{job("a", 0, 8), job("b", 0, 8)}
	if !Underallocated(js, 1, 4) {
		t.Error("4-underallocation rejected")
	}
	if Underallocated(js, 1, 8) {
		t.Error("8-underallocation accepted (needs 16 slots)")
	}
	if got := MaxCongestion(js, 1); got != 4 {
		t.Errorf("MaxCongestion = %d, want 4", got)
	}
}

func TestUnderallocatedMultiMachine(t *testing.T) {
	// 4 jobs in window [0,8) on m=2: slack factor m*8/4 = 4.
	js := []jobs.Job{job("a", 0, 8), job("b", 0, 8), job("c", 0, 8), job("d", 0, 8)}
	if !Underallocated(js, 2, 4) {
		t.Error("m=2 4-underallocation rejected")
	}
	if Underallocated(js, 2, 5) {
		t.Error("m=2 5-underallocation accepted")
	}
}

func TestUnderallocatedNestedWindows(t *testing.T) {
	// Jobs concentrated in a sub-window must be caught even if the outer
	// window is slack: 4 jobs in [0,4), plus 1 in [0,64).
	js := []jobs.Job{
		job("a", 0, 4), job("b", 0, 4), job("c", 0, 4), job("d", 0, 4),
		job("e", 0, 64),
	}
	if Underallocated(js, 1, 2) {
		t.Error("congested sub-window not detected")
	}
	if !Underallocated(js, 1, 1) {
		t.Error("feasible set rejected at gamma=1")
	}
}

func TestUnderallocatedEmpty(t *testing.T) {
	if !Underallocated(nil, 1, 100) {
		t.Error("empty set not underallocated")
	}
}

// Property: Underallocated(γ=1) is implied by EDF feasibility... in fact
// for unit jobs Hall's condition is equivalent to feasibility, so the
// counting check at γ=1 must agree with EDF on random instances.
func TestHallEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := 1 + rng.Intn(3)
		var js []jobs.Job
		for i := 0; i < n; i++ {
			s := int64(rng.Intn(30))
			e := s + 1 + int64(rng.Intn(10))
			js = append(js, job(name(i), s, e))
		}
		return Underallocated(js, m, 1) == IsFeasible(js, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity in γ — if γ-underallocated then also
// γ'-underallocated for γ' < γ.
func TestUnderallocationMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var js []jobs.Job
		for i := 0; i < 20; i++ {
			s := int64(rng.Intn(50))
			e := s + 1 + int64(rng.Intn(20))
			js = append(js, job(name(i), s, e))
		}
		g := MaxCongestion(js, 1)
		for gamma := int64(1); gamma <= g; gamma++ {
			if !Underallocated(js, 1, gamma) {
				return false
			}
		}
		return g == 0 || !Underallocated(js, 1, g+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: EDF's output always verifies.
func TestEDFOutputVerifiesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		m := 1 + rng.Intn(4)
		var js []jobs.Job
		for i := 0; i < n; i++ {
			s := int64(rng.Intn(40))
			e := s + 1 + int64(rng.Intn(16))
			js = append(js, job(name(i), s, e))
		}
		a, ok := EDF(js, m)
		if !ok {
			return true
		}
		return VerifySchedule(js, a, m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func name(i int) string {
	return "j" + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

// MaxCongestion returns the maximum over critical intervals [s, t) of
// count(jobs inside) * span_unit / (m * (t-s)) expressed as the largest γ
// for which Underallocated holds, i.e. floor(min over intervals of
// m*(t-s)/count). Returns a very large value (1<<30) for an empty set.
func MaxCongestion(js []jobs.Job, m int) int64 {
	lo, hi := int64(1), int64(1)<<30
	if !Underallocated(js, m, 1) {
		return 0
	}
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if Underallocated(js, m, mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
