package lowerbound

import (
	"strings"
	"testing"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/sched"
)

func coreStack(m int) sched.Scheduler {
	return alignsched.New(multi.New(m, func() sched.Scheduler { return core.New() }))
}

func TestLemma12SequenceShape(t *testing.T) {
	reqs := Lemma12Sequence(10, 3)
	if len(reqs) != 10+4*3 {
		t.Fatalf("len = %d", len(reqs))
	}
	// First eta are chain inserts with span 2.
	for i := 0; i < 10; i++ {
		if reqs[i].Kind != jobs.Insert || reqs[i].Window.Span() != 2 {
			t.Errorf("req %d = %v", i, reqs[i])
		}
	}
	// Toggles alternate insert/delete.
	for i := 10; i < len(reqs); i += 2 {
		if reqs[i].Kind != jobs.Insert || reqs[i+1].Kind != jobs.Delete ||
			reqs[i].Name != reqs[i+1].Name {
			t.Errorf("toggle at %d broken: %v %v", i, reqs[i], reqs[i+1])
		}
	}
}

// Lemma 12 measured: on EDF (or any scheduler) the toggle phase costs
// Θ(eta) per toggle, Θ(eta²) total.
func TestLemma12QuadraticOnEDF(t *testing.T) {
	const eta, cycles = 40, 20
	s := edf.New(1)
	rec, err := MeasureDiffCosts(s, Lemma12Sequence(eta, cycles))
	if err != nil {
		t.Fatal(err)
	}
	costs := rec.Costs()
	// Each "insert left" toggle (first of each cycle) must move >= eta jobs.
	toggleStart := eta
	for c := 0; c < cycles; c++ {
		insLeft := costs[toggleStart+4*c].Reallocations
		if insLeft < eta {
			t.Errorf("cycle %d: left toggle moved %d < eta=%d jobs", c, insLeft, eta)
		}
	}
	total := rec.Summary().TotalReallocations
	if total < eta*cycles {
		t.Errorf("total %d below quadratic envelope %d", total, eta*cycles)
	}
}

func TestFrontInsertSequenceShape(t *testing.T) {
	reqs := FrontInsertSequence(8, 2)
	if len(reqs) != 8+4 {
		t.Fatalf("len = %d", len(reqs))
	}
	for i := 0; i < 8; i++ {
		if reqs[i].Window.Span() != int64(16*8+i) {
			t.Errorf("stagger %d span = %d", i, reqs[i].Window.Span())
		}
	}
}

// The motivating contrast for Section 4: EDF pays Θ(n) per probe, the
// reservation stack pays O(1).
func TestEDFBrittleVsReservationRobust(t *testing.T) {
	const n, probes = 64, 8
	seq := FrontInsertSequence(n, probes)

	edfRec, err := MeasureDiffCosts(edf.New(1), seq)
	if err != nil {
		t.Fatal(err)
	}
	coreRec, err := MeasureDiffCosts(alignsched.New(core.New()), seq)
	if err != nil {
		t.Fatal(err)
	}
	// Probe inserts are at indices n, n+2, n+4, ...
	for p := 0; p < probes; p++ {
		e := edfRec.Costs()[n+2*p].Reallocations
		c := coreRec.Costs()[n+2*p].Reallocations
		if e < n/2 {
			t.Errorf("probe %d: EDF moved only %d jobs, expected ~%d", p, e, n)
		}
		if c > 8 {
			t.Errorf("probe %d: reservation scheduler moved %d jobs, expected O(1)", p, c)
		}
	}
}

func TestLemma11RejectsOddMachines(t *testing.T) {
	if _, err := RunLemma11(coreStack(3), 1); err == nil ||
		!strings.Contains(err.Error(), "even machine count") {
		t.Errorf("odd m accepted: %v", err)
	}
	if _, err := RunLemma11(coreStack(1), 1); err == nil {
		t.Error("m=1 accepted")
	}
}

// Lemma 11 measured on the full Theorem 1 stack: total migrations grow
// linearly in the number of requests and meet the paper's s/12 bound.
func TestLemma11LinearMigrations(t *testing.T) {
	for _, m := range []int{2, 4} {
		res, err := RunLemma11(coreStack(m), 6)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Requests != 6*6*m {
			t.Errorf("m=%d: %d requests, want %d", m, res.Requests, 36*m)
		}
		if res.TotalMigrations < res.PaperLowerBound {
			t.Errorf("m=%d: %d migrations below paper bound %d",
				m, res.TotalMigrations, res.PaperLowerBound)
		}
		// Theorem 1's upper bound: at most one migration per request.
		if res.TotalMigrations > res.Requests {
			t.Errorf("m=%d: %d migrations exceed one per request", m, res.TotalMigrations)
		}
	}
}

// Lemma 11 on EDF too: the bound is algorithm-independent.
func TestLemma11OnEDF(t *testing.T) {
	res, err := RunLemma11(edf.New(2), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMigrations < res.PaperLowerBound {
		t.Errorf("%d migrations below paper bound %d", res.TotalMigrations, res.PaperLowerBound)
	}
}

func TestMeasureDiffCostsCountsInsertPlacement(t *testing.T) {
	s := edf.New(1)
	rec, err := MeasureDiffCosts(s, []jobs.Request{jobs.InsertReq("a", 0, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Costs()[0].Reallocations != 1 {
		t.Errorf("insert cost = %+v", rec.Costs()[0])
	}
}

func TestSequencePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"lemma12": func() { Lemma12Sequence(0, 1) },
		"front":   func() { FrontInsertSequence(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
