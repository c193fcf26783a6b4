package sched_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/naive"
	"repro/internal/sched"
)

func TestNewBatchErrorNilOnSuccess(t *testing.T) {
	if err := sched.NewBatchError([]error{nil, nil, nil}); err != nil {
		t.Fatalf("all-success batch reported %v", err)
	}
	if err := sched.NewBatchError(nil); err != nil {
		t.Fatalf("empty batch reported %v", err)
	}
}

func TestBatchErrorMapsFailuresToIndices(t *testing.T) {
	e0 := errors.New("boom")
	err := sched.NewBatchError([]error{nil, e0, nil, sched.ErrUnknownJob})
	var be *sched.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("NewBatchError returned %T", err)
	}
	if be.Failed != 2 {
		t.Errorf("Failed = %d, want 2", be.Failed)
	}
	if i, first := be.First(); i != 1 || first != e0 {
		t.Errorf("First() = (%d, %v), want (1, boom)", i, first)
	}
	if be.At(0) != nil || be.At(1) != e0 || be.At(3) == nil || be.At(99) != nil {
		t.Error("At() does not index the per-request errors")
	}
	if !errors.Is(err, sched.ErrUnknownJob) {
		t.Error("errors.Is does not traverse the recorded failures")
	}
	if !strings.Contains(err.Error(), "index 1") {
		t.Errorf("summary lacks first failure index: %v", err)
	}
}

// TestApplyBatchFallbackMatchesSequential: a scheduler without a bulk
// path gets the per-request loop with identical outcomes.
func TestApplyBatchFallbackMatchesSequential(t *testing.T) {
	reqs := []jobs.Request{
		jobs.InsertReq("a", 0, 4),
		jobs.InsertReq("a", 0, 4), // duplicate
		jobs.InsertReq("b", 4, 8),
		jobs.DeleteReq("a"),
		jobs.DeleteReq("ghost"), // unknown
	}
	batched := naive.New()
	costs, err := sched.ApplyBatch(batched, reqs)
	if len(costs) != len(reqs) {
		t.Fatalf("got %d costs for %d requests", len(costs), len(reqs))
	}
	var be *sched.BatchError
	if !errors.As(err, &be) || be.Failed != 2 {
		t.Fatalf("want 2 failures, got %v", err)
	}
	if !errors.Is(be.At(1), sched.ErrDuplicateJob) || !errors.Is(be.At(4), sched.ErrUnknownJob) {
		t.Errorf("failure indices wrong: %v", err)
	}

	seq := naive.New()
	for _, r := range reqs {
		_, _ = sched.Apply(seq, r)
	}
	if len(seq.Assignment()) != len(batched.Assignment()) {
		t.Errorf("fallback diverged: %d vs %d jobs", len(batched.Assignment()), len(seq.Assignment()))
	}
}

func TestInsertsOnly(t *testing.T) {
	ins, del := jobs.InsertReq("a", 0, 4), jobs.DeleteReq("a")
	for _, tc := range []struct {
		reqs []jobs.Request
		want bool
	}{
		{nil, true},
		{[]jobs.Request{ins, ins}, true},
		{[]jobs.Request{ins, del}, false},
		{[]jobs.Request{{Kind: 99, Name: "a"}}, false},
	} {
		if got := sched.InsertsOnly(tc.reqs); got != tc.want {
			t.Errorf("InsertsOnly(%v) = %v, want %v", tc.reqs, got, tc.want)
		}
	}
}

func TestErrAt(t *testing.T) {
	boom := errors.New("boom")
	if sched.ErrAt(nil, 0) != nil {
		t.Error("a successful call has no per-request error")
	}
	if be := sched.NewBatchError([]error{nil, boom}); sched.ErrAt(be, 0) != nil || sched.ErrAt(be, 1) != boom {
		t.Error("a *BatchError is not indexed by request")
	}
	if sched.ErrAt(boom, 3) != boom {
		t.Error("a structural error does not fail every request")
	}
}
