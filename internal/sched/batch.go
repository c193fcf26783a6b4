// Batched admission. The paper prices every insert and delete on its
// own, and a batch that contains a delete is served exactly that way:
// ApplyEach runs it request by request through each layer's Insert and
// Delete. The one batch shape with a bulk path is the insert-only batch
// on a bare stack (a checkpoint restore through RestoreJobs, a preload
// of an unsharded stack), where the trimming layer replaces the n*
// doublings of the ramp with one rebuild; the layers choose between the
// two by looking at the batch (InsertsOnly). The sharded front-end runs
// every batch request by request, so through it an insert-only batch is
// exact too. BatchScheduler is the optional interface of the layers
// with a bulk path; ApplyBatch is the uniform entry point, which falls
// back to ApplyEach for schedulers without one.
//
// Batch semantics, shared by every implementation in this repository:
//
//   - Requests execute in order. A failed request does not abort the
//     batch; its error is recorded and the remaining requests run.
//   - The returned cost slice is parallel to the request slice.
//   - The error is nil when every request succeeded, otherwise a
//     *BatchError carrying the per-request errors.
//   - A batch that contains a delete returns exactly the costs, errors
//     and schedule of applying its requests one at a time.
//   - An insert-only batch in which no insert fails (e.g. on a
//     γ-underallocated job set) lands on the schedule of applying its
//     requests one at a time. Every admitted job reports its first
//     placement on its own request; the reallocations of the merged
//     rebuild land on the request that crossed the last threshold.
//   - An insert-only batch whose merged rebuild cannot place every job
//     runs request by request and returns exactly what that returns.
//   - No batch removes a job that an earlier request admitted.
package sched

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/metrics"
)

// BatchScheduler is implemented by schedulers with an amortized bulk
// admission path. ApplyBatch serves the whole request slice, returning
// one cost per request and a *BatchError aggregating any per-request
// failures.
type BatchScheduler interface {
	ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error)
}

// BatchError aggregates the per-request failures of one batch. Errs is
// parallel to the request slice (nil entries are successes), so callers
// can map failures back to requests by index. errors.Is and errors.As
// traverse every recorded failure via Unwrap.
type BatchError struct {
	// Failed is the number of requests that failed.
	Failed int
	// Errs has one entry per request of the batch; nil means success.
	Errs []error
}

// NewBatchError builds a *BatchError from a per-request error slice, or
// returns nil when every entry is nil. The slice is retained.
func NewBatchError(errs []error) error {
	failed := 0
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	if failed == 0 {
		return nil
	}
	return &BatchError{Failed: failed, Errs: errs}
}

// Error summarizes the failure count and the first failure.
func (e *BatchError) Error() string {
	i, first := e.First()
	return fmt.Sprintf("sched: %d of %d batched request(s) failed, first at index %d: %v",
		e.Failed, len(e.Errs), i, first)
}

// First returns the index and error of the first failed request.
func (e *BatchError) First() (int, error) {
	for i, err := range e.Errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// At returns the error of request i (nil for successes).
func (e *BatchError) At(i int) error {
	if i < 0 || i >= len(e.Errs) {
		return nil
	}
	return e.Errs[i]
}

// Unwrap exposes the per-request failures to errors.Is / errors.As.
func (e *BatchError) Unwrap() []error {
	out := make([]error, 0, e.Failed)
	for _, err := range e.Errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return out
}

// BatchEvictor is kept only for the benchmark's decorator table
// (bench/trace.go), which expects trim, multi and alignsched to show it.
// No batch sheds a job, so every implementation returns nil.
type BatchEvictor interface {
	TakeBatchEvictions() []string
}

// ApplyBatch routes a request slice to the scheduler's bulk path when it
// has one, and otherwise applies the requests one at a time.
func ApplyBatch(s Scheduler, reqs []jobs.Request) ([]metrics.Cost, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if b, ok := s.(BatchScheduler); ok {
		return b.ApplyBatch(reqs)
	}
	return ApplyEach(s, reqs)
}

// ApplyEach is the per-request batch loop: the requests run in order
// through Apply, a failed request does not abort the batch, and the
// failures come back as a *BatchError. It is how every layer serves a
// batch that contains a delete, so a mixed batch pays exactly the
// per-request costs and reports exactly the per-request errors.
func ApplyEach(s Scheduler, reqs []jobs.Request) ([]metrics.Cost, error) {
	costs := make([]metrics.Cost, len(reqs))
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		costs[i], errs[i] = Apply(s, r)
	}
	return costs, NewBatchError(errs)
}

// InsertsOnly reports whether every request is an insert — the one
// batch shape (checkpoint restore, preload) the layers keep a bulk
// path for.
func InsertsOnly(reqs []jobs.Request) bool {
	for _, r := range reqs {
		if r.Kind != jobs.Insert {
			return false
		}
	}
	return true
}

// ErrAt returns request i's error out of a bulk call's result: the
// indexed entry of a *BatchError, or err itself when the whole call
// failed structurally.
func ErrAt(err error, i int) error {
	if be, ok := err.(*BatchError); ok {
		return be.At(i)
	}
	return err
}

// asBatchError is errors.As specialized to *BatchError without pulling
// errors into the hot path.
func asBatchError(err error, target **BatchError) bool {
	be, ok := err.(*BatchError)
	if ok {
		*target = be
	}
	return ok
}
