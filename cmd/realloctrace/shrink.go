package main

// The shrink mode's minimizer: when a long random run trips an
// invariant, shrink reduces the request sequence to a small reproducer
// by repeatedly deleting insert/delete pairs that do not affect the
// failure — the debugging workflow this repository used while bringing
// up the reservation scheduler.

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/sched"
)

// firstFailure runs the sequence on a fresh scheduler, self-checking
// after every request, and returns the index and error of the first
// failure (-1 and nil on a clean run).
func firstFailure(factory func() sched.Scheduler, reqs []jobs.Request) (int, error) {
	s := factory()
	for i, r := range reqs {
		if _, err := sched.Apply(s, r); err != nil {
			return i, err
		}
		if err := s.SelfCheck(); err != nil {
			return i, fmt.Errorf("invariant violation: %w", err)
		}
	}
	return -1, nil
}

// fails reports whether the sequence reproduces a failure under the
// factory (any scheduler error or invariant violation, excluding
// well-formedness errors caused by the reduction itself).
func fails(factory func() sched.Scheduler, reqs []jobs.Request) bool {
	if !wellFormed(reqs) {
		return false
	}
	step, err := firstFailure(factory, reqs)
	return err != nil && step >= 0
}

// wellFormed checks that deletes target live names and inserts do not
// duplicate live names — reductions must preserve this or they would
// "fail" for uninteresting reasons.
func wellFormed(reqs []jobs.Request) bool {
	live := make(map[string]bool)
	for _, r := range reqs {
		switch r.Kind {
		case jobs.Insert:
			if live[r.Name] {
				return false
			}
			live[r.Name] = true
		case jobs.Delete:
			if !live[r.Name] {
				return false
			}
			delete(live, r.Name)
		}
	}
	return true
}

// shrink minimizes a failing request sequence: it repeatedly removes
// whole insert/delete lifecycles (and truncates the tail) while the
// sequence still fails, until no single removal keeps it failing. The
// result is a locally minimal reproducer.
func shrink(factory func() sched.Scheduler, reqs []jobs.Request) []jobs.Request {
	cur := append([]jobs.Request{}, reqs...)
	if !fails(factory, cur) {
		return cur // not failing: nothing to shrink
	}
	// First truncate to the failing prefix.
	if step, err := firstFailure(factory, cur); err != nil && step >= 0 {
		cur = cur[:step+1]
	}
	for {
		improved := false
		// Try removing each job lifecycle, most recent first (later
		// lifecycles are more likely incidental).
		names := lifecycleNames(cur)
		for i := len(names) - 1; i >= 0; i-- {
			candidate := removeLifecycle(cur, names[i])
			if len(candidate) < len(cur) && fails(factory, candidate) {
				cur = candidate
				improved = true
			}
		}
		// Then re-truncate to the failing prefix.
		if step, err := firstFailure(factory, cur); err != nil && step+1 < len(cur) {
			cur = cur[:step+1]
			improved = true
		}
		if !improved {
			return cur
		}
	}
}

// lifecycleNames lists distinct job names in first-appearance order.
func lifecycleNames(reqs []jobs.Request) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range reqs {
		if !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
	}
	return out
}

// removeLifecycle drops every request mentioning the given name.
func removeLifecycle(reqs []jobs.Request, name string) []jobs.Request {
	out := make([]jobs.Request, 0, len(reqs))
	for _, r := range reqs {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}
