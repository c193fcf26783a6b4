package sched_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/sched"
)

func TestApplyRoutesRequests(t *testing.T) {
	s := naive.New()
	if _, err := sched.Apply(s, jobs.InsertReq("a", 0, 4)); err != nil {
		t.Fatal(err)
	}
	if s.Active() != 1 {
		t.Error("insert not routed")
	}
	if _, err := sched.Apply(s, jobs.DeleteReq("a")); err != nil {
		t.Fatal(err)
	}
	if s.Active() != 0 {
		t.Error("delete not routed")
	}
	if _, err := sched.Apply(s, jobs.Request{Kind: jobs.RequestKind(7), Name: "x"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunStopsAtFirstError(t *testing.T) {
	s := naive.New()
	reqs := []jobs.Request{
		jobs.InsertReq("a", 0, 1),
		jobs.InsertReq("b", 0, 1), // infeasible
		jobs.InsertReq("c", 4, 8), // never reached
	}
	rec := metrics.NewRecorder()
	n, err := sched.Run(s, reqs, rec)
	if err == nil {
		t.Fatal("error swallowed")
	}
	if n != 1 {
		t.Errorf("served %d before failing, want 1", n)
	}
	if rec.Len() != 1 {
		t.Errorf("recorded %d costs, want the successful prefix only", rec.Len())
	}
	if !strings.Contains(err.Error(), "request 1") {
		t.Errorf("error lacks request index: %v", err)
	}
}

func TestRunNilRecorder(t *testing.T) {
	s := naive.New()
	if _, err := sched.Run(s, []jobs.Request{jobs.InsertReq("a", 0, 4)}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunCheckedReportsInvariantViolations(t *testing.T) {
	s := &corrupting{Scheduler: naive.New()}
	reqs := []jobs.Request{jobs.InsertReq("a", 0, 4), jobs.InsertReq("b", 0, 4)}
	_, err := sched.RunChecked(s, reqs, nil)
	if err == nil || !strings.Contains(err.Error(), "invariant violation") {
		t.Errorf("err = %v", err)
	}
}

// corrupting passes through but fails SelfCheck after the second insert.
type corrupting struct {
	*naive.Scheduler
	count int
}

func (c *corrupting) Insert(j jobs.Job) (metrics.Cost, error) {
	c.count++
	return c.Scheduler.Insert(j)
}

func (c *corrupting) SelfCheck() error {
	if c.count >= 2 {
		return errors.New("synthetic corruption")
	}
	return c.Scheduler.SelfCheck()
}

// AdmitAligned is the shared static check of trim and multi: the window
// must be valid and aligned, and an active name is a duplicate.
func TestAdmitAligned(t *testing.T) {
	ok := jobs.Job{Name: "a", Window: jobs.Window{Start: 8, End: 16}}
	if err := sched.AdmitAligned(ok, false); err != nil {
		t.Fatalf("aligned fresh job rejected: %v", err)
	}
	if err := sched.AdmitAligned(ok, true); !errors.Is(err, sched.ErrDuplicateJob) || err.Error() != sched.ErrDuplicateJob.Error()+`: "a"` {
		t.Fatalf("active name: %v", err)
	}
	if err := sched.AdmitAligned(jobs.Job{Name: "b", Window: jobs.Window{Start: 8, End: 20}}, false); !errors.Is(err, sched.ErrMisaligned) {
		t.Fatalf("misaligned window: %v", err)
	}
	if err := sched.AdmitAligned(jobs.Job{Name: "c", Window: jobs.Window{Start: 8, End: 8}}, false); err == nil {
		t.Fatal("empty window admitted")
	}
}

func TestInfeasibleErrorUnwraps(t *testing.T) {
	e := &sched.InfeasibleError{Req: jobs.InsertReq("a", 0, 1), Detail: "test"}
	if !errors.Is(e, sched.ErrInfeasible) {
		t.Error("InfeasibleError does not unwrap to ErrInfeasible")
	}
	if !strings.Contains(e.Error(), "insert a") || !strings.Contains(e.Error(), "test") {
		t.Errorf("message = %q", e.Error())
	}
}
