package mixed

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/jobs"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func TestUnitRejections(t *testing.T) {
	s := New(16)
	if c, err := s.InsertUnit("a", win(0, 1)); err != nil || c.Reallocations != 1 {
		t.Fatalf("insert: cost %+v, err %v", c, err)
	}
	if _, err := s.InsertUnit("a", win(0, 4)); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := s.InsertUnit("b", win(0, 1)); err == nil {
		t.Error("overfull window accepted")
	}
}

func TestBigJobEvictsUnits(t *testing.T) {
	s := New(32)
	// Unit jobs at slots 0..3 with wide windows.
	for i := 0; i < 4; i++ {
		if _, err := s.InsertUnit(fmt.Sprintf("u%d", i), win(0, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Big job of size 4 at [0, 4) evicts all four.
	c, err := s.InsertBig("p", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reallocations != 5 { // big placement + 4 evictions
		t.Errorf("cost %+v, want 5 reallocations", c)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestBigJobRejections(t *testing.T) {
	s := New(8)
	if _, err := s.InsertBig("p", 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBig("q", 4, 4); err == nil {
		t.Error("second big job accepted")
	}
	if _, err := s.DeleteBig("q"); err == nil {
		t.Error("wrong-name delete accepted")
	}
	if _, err := s.DeleteBig("p"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertBig("r", 6, 4); err == nil {
		t.Error("out-of-horizon big job accepted")
	}
}

func TestBigJobTooTight(t *testing.T) {
	s := New(4)
	for i := 0; i < 4; i++ {
		if _, err := s.InsertUnit(fmt.Sprintf("u%d", i), win(0, 4)); err != nil {
			t.Fatal(err)
		}
	}
	// No room to relocate evicted units.
	if _, err := s.InsertBig("p", 0, 2); err == nil ||
		!strings.Contains(err.Error(), "cannot relocate") {
		t.Errorf("tight instance: %v", err)
	}
}

// Observation 13 measured: every sweep of 2γ toggles costs at least k
// reallocations, so the aggregate over n sweeps is Ω(kn).
func TestObservation13LowerBound(t *testing.T) {
	for _, k := range []int64{4, 16, 64} {
		res, err := RunObservation13(k, 2, 5)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.MinSweepCost < int(k) {
			t.Errorf("k=%d: min sweep cost %d below the paper's per-sweep bound %d",
				k, res.MinSweepCost, k)
		}
		if res.TotalCost < 5*int(k) {
			t.Errorf("k=%d: total %d below Ω(k·sweeps) = %d", k, res.TotalCost, 5*k)
		}
	}
}

// The aggregate grows linearly in k at fixed request count per sweep —
// the Ω(kn) shape of Observation 13.
func TestObservation13ScalesWithK(t *testing.T) {
	small, err := RunObservation13(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunObservation13(32, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4x the k should give roughly 4x the cost (within 2x tolerance).
	ratio := float64(large.TotalCost) / float64(small.TotalCost)
	if ratio < 2 || ratio > 8 {
		t.Errorf("cost ratio %f for 4x k (small=%d, large=%d)", ratio, small.TotalCost, large.TotalCost)
	}
}

func TestObservation13BadParams(t *testing.T) {
	if _, err := RunObservation13(0, 2, 1); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RunObservation13(4, 0, 1); err == nil {
		t.Error("gamma=0 accepted")
	}
	if _, err := RunObservation13(4, 2, 0); err == nil {
		t.Error("sweeps=0 accepted")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("horizon 0 accepted")
		}
	}()
	New(0)
}
