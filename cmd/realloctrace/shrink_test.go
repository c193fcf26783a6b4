package main

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/naive"
	"repro/internal/sched"
	"repro/internal/workload"
)

func coreFactory() sched.Scheduler { return core.New() }

// cleanSequence generates a random underallocated workload.
func cleanSequence(t *testing.T, seed int64) []jobs.Request {
	t.Helper()
	g, err := workload.NewGenerator(workload.Config{Seed: seed, Gamma: 8, Horizon: 512, Steps: 200})
	if err != nil {
		t.Fatal(err)
	}
	return g.Sequence()
}

func TestCleanRun(t *testing.T) {
	if step, err := firstFailure(coreFactory, cleanSequence(t, 1)); err != nil {
		t.Fatalf("clean workload failed at step %d: %v", step, err)
	}
}

func TestCleanRunNaive(t *testing.T) {
	naiveFactory := func() sched.Scheduler { return naive.New() }
	if step, err := firstFailure(naiveFactory, cleanSequence(t, 2)); err != nil {
		t.Fatalf("clean workload failed at step %d: %v", step, err)
	}
}

func TestWellFormed(t *testing.T) {
	good := []jobs.Request{
		jobs.InsertReq("a", 0, 4), jobs.DeleteReq("a"), jobs.InsertReq("a", 0, 4),
	}
	if !wellFormed(good) {
		t.Error("good sequence rejected")
	}
	if wellFormed([]jobs.Request{jobs.DeleteReq("x")}) {
		t.Error("delete of unknown accepted")
	}
	if wellFormed([]jobs.Request{jobs.InsertReq("a", 0, 4), jobs.InsertReq("a", 0, 4)}) {
		t.Error("duplicate insert accepted")
	}
}

// brokenScheduler fails when a configurable number of jobs with span 1
// are simultaneously active — a stand-in for a subtle invariant bug.
type brokenScheduler struct {
	*naive.Scheduler
	span1 int
}

func newBroken() *brokenScheduler { return &brokenScheduler{Scheduler: naive.New()} }

func (b *brokenScheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	c, err := b.Scheduler.Insert(j)
	if err == nil && j.Window.Span() == 1 {
		b.span1++
		if b.span1 >= 3 {
			return c, errors.New("synthetic bug: three span-1 jobs")
		}
	}
	return c, err
}

func (b *brokenScheduler) Delete(name string) (metrics.Cost, error) {
	// Track span-1 deletions via the job list before deleting.
	for _, j := range b.Scheduler.Jobs() {
		if j.Name == name && j.Window.Span() == 1 {
			b.span1--
		}
	}
	return b.Scheduler.Delete(name)
}

func TestShrinkFindsMinimalReproducer(t *testing.T) {
	factory := func() sched.Scheduler { return newBroken() }

	// A long sequence with lots of irrelevant jobs and three span-1
	// inserts buried inside.
	var reqs []jobs.Request
	for i := 0; i < 40; i++ {
		span := int64(4)
		start := int64(i%8) * 4
		reqs = append(reqs, jobs.InsertReq(fmt.Sprintf("noise%02d", i), start, start+span))
		if i%3 == 0 {
			reqs = append(reqs, jobs.DeleteReq(fmt.Sprintf("noise%02d", i)))
		}
		if i == 10 || i == 20 || i == 30 {
			reqs = append(reqs, jobs.InsertReq(fmt.Sprintf("tiny%02d", i), int64(i), int64(i)+1))
		}
	}
	if !fails(factory, reqs) {
		t.Fatal("synthetic bug not triggered by the full sequence")
	}
	small := shrink(factory, reqs)
	if !fails(factory, small) {
		t.Fatal("shrunk sequence no longer fails")
	}
	// Minimal reproducer: exactly the three span-1 inserts.
	if len(small) != 3 {
		t.Errorf("shrunk to %d requests, want 3: %v", len(small), small)
	}
	for _, r := range small {
		if r.Kind != jobs.Insert || r.Window.Span() != 1 {
			t.Errorf("non-essential request survived shrinking: %v", r)
		}
	}
}

func TestShrinkOnPassingSequence(t *testing.T) {
	reqs := []jobs.Request{jobs.InsertReq("a", 0, 4)}
	out := shrink(coreFactory, reqs)
	if len(out) != 1 {
		t.Errorf("passing sequence altered: %v", out)
	}
}

func TestFailsRejectsMalformed(t *testing.T) {
	if fails(coreFactory, []jobs.Request{jobs.DeleteReq("ghost")}) {
		t.Error("malformed sequence reported as interesting failure")
	}
}
