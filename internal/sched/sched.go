// Package sched defines the interfaces and shared errors implemented by
// every reallocating scheduler in this repository (the paper's Section 2
// model): the naive pecking-order scheduler, the reservation-based
// scheduler, the EDF/LLF baselines, and the multi-machine and alignment
// wrappers.
package sched

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/metrics"
)

// The sentinels below are aliases into internal/fault, the repository's
// unified error vocabulary: errors.Is against sched.ErrInfeasible,
// fault.ErrInfeasible, and realloc.ErrInfeasible are all the same test.

// ErrDuplicateJob is returned when inserting a job whose name is already
// active.
var ErrDuplicateJob = fault.ErrDuplicateJob

// ErrUnknownJob is returned when deleting a job that is not active.
var ErrUnknownJob = fault.ErrUnknownJob

// ErrInfeasible is returned when the scheduler cannot place a job — for
// the greedy schedulers this means the instance is not feasible (or, for
// the reservation scheduler, not sufficiently underallocated).
var ErrInfeasible = fault.ErrInfeasible

// ErrMisaligned is returned by aligned-only schedulers when a window is
// not aligned.
var ErrMisaligned = fault.ErrMisaligned

// InfeasibleError wraps ErrInfeasible with context about the request that
// failed.
type InfeasibleError struct {
	Req    jobs.Request
	Detail string
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("%v: %s (%s)", ErrInfeasible, e.Req, e.Detail)
}

// Unwrap lets errors.Is(err, ErrInfeasible) succeed.
func (e *InfeasibleError) Unwrap() error { return ErrInfeasible }

// Scheduler is a reallocating scheduler: it maintains a feasible schedule
// for the active jobs across a sequence of insert/delete requests and
// reports the cost of each request.
type Scheduler interface {
	// Insert adds a job and returns the cost of the reallocation that
	// serviced the request.
	Insert(j jobs.Job) (metrics.Cost, error)
	// Delete removes an active job by name and returns the cost.
	Delete(name string) (metrics.Cost, error)
	// Assignment returns a snapshot of the current schedule.
	Assignment() jobs.Assignment
	// Active returns the number of active jobs.
	Active() int
	// Jobs returns a snapshot of the active job set.
	Jobs() []jobs.Job
	// Machines returns the number of machines the scheduler manages.
	Machines() int
	// SelfCheck revalidates every internal invariant, returning the
	// first violation. Intended for tests; may be slow.
	SelfCheck() error
}

// ErrNotElastic reports a resize against a scheduler (or wrapper chain)
// that does not support changing its machine pool.
var ErrNotElastic = fault.ErrNotElastic

// Poisoner is implemented by schedulers that can become permanently
// unusable after a failed request (the reservation core: a mid-request
// failure leaves partial reservation state). Wrappers probe it to
// decide whether a rejection needs a recovery rebuild — a clean
// rejection (duplicate, misaligned, cap exceeded) does not.
type Poisoner interface {
	// Poisoned returns the sticky failure, or nil while usable.
	Poisoned() error
}

// Poisoned reports s's sticky failure state: nil for healthy schedulers
// and for schedulers that cannot poison (no Poisoner implementation).
func Poisoned(s Scheduler) error {
	if p, ok := s.(Poisoner); ok {
		return p.Poisoned()
	}
	return nil
}

// Recycler is implemented by schedulers whose internal structures can
// be returned to allocation pools when the scheduler is discarded. The
// trimming wrappers rebuild by constructing a fresh inner scheduler and
// dropping the old one; recycling the old one lets the fresh build
// reuse its maps and structs instead of growing them from zero —
// rebuild-heavy workloads otherwise spend their time in the allocator.
//
// Contract: Recycle is called at most once, after which the scheduler
// must not be used — the caller drops every reference first.
type Recycler interface {
	Recycle()
}

// Recycle returns s's internal structures to their pools when s
// supports it, and is a no-op otherwise.
func Recycle(s Scheduler) {
	if r, ok := s.(Recycler); ok {
		r.Recycle()
	}
}

// Elastic is implemented by schedulers whose machine pool can be
// resized at runtime. Resizing is a control operation, not a request:
// it is not part of the paper's request model, but the reallocation
// costs it incurs are measured in the same two currencies.
//
// The contract mirrors the paper's migration discipline: growing the
// pool never moves a job, and shrinking the pool re-places only the
// jobs that lived on the drained machines — at most one migration per
// drained job. Jobs the shrunken pool cannot absorb are evicted and
// returned to the caller instead of being dropped silently.
type Elastic interface {
	// AddMachines grows the pool by n fresh machines. No job moves.
	AddMachines(n int) error
	// RemoveMachines shrinks the pool by its last n machines. Jobs on
	// the drained machines are re-placed on the surviving machines
	// where possible (one migration each, folded into the returned
	// cost); jobs that fit nowhere are removed from the scheduler and
	// returned as evicted.
	RemoveMachines(n int) (metrics.Cost, []jobs.Job, error)
}

// AdmitAligned runs the static checks of an aligned-only layer's
// Insert: a well-formed aligned window, and a name that is not already
// active (the caller says whether it is).
func AdmitAligned(j jobs.Job, active bool) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if !j.Window.IsAligned() {
		return fmt.Errorf("%w: %v", ErrMisaligned, j.Window)
	}
	if active {
		return fmt.Errorf("%w: %q", ErrDuplicateJob, j.Name)
	}
	return nil
}

// Apply routes one request to the scheduler.
func Apply(s Scheduler, r jobs.Request) (metrics.Cost, error) {
	switch r.Kind {
	case jobs.Insert:
		return s.Insert(jobs.Job{Name: r.Name, Window: r.Window})
	case jobs.Delete:
		return s.Delete(r.Name)
	default:
		return metrics.Cost{}, fmt.Errorf("sched: unknown request kind %d", r.Kind)
	}
}

// Run feeds a whole request sequence to the scheduler, recording costs.
// It stops at the first error, returning the index of the failing request
// alongside the error. The recorder always reflects the successfully
// served prefix.
func Run(s Scheduler, reqs []jobs.Request, rec *metrics.Recorder) (int, error) {
	for i, r := range reqs {
		c, err := Apply(s, r)
		if err != nil {
			return i, fmt.Errorf("request %d (%s): %w", i, r, err)
		}
		if rec != nil {
			rec.Record(c, s.Active())
		}
	}
	return len(reqs), nil
}

// RunChecked is Run with a SelfCheck after every request; it is the
// workhorse of the test suites.
func RunChecked(s Scheduler, reqs []jobs.Request, rec *metrics.Recorder) (int, error) {
	for i, r := range reqs {
		c, err := Apply(s, r)
		if err != nil {
			return i, fmt.Errorf("request %d (%s): %w", i, r, err)
		}
		if rec != nil {
			rec.Record(c, s.Active())
		}
		if err := s.SelfCheck(); err != nil {
			return i, fmt.Errorf("invariant violation after request %d (%s): %w", i, r, err)
		}
	}
	return len(reqs), nil
}
