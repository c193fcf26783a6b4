// Package edf implements the classical earliest-deadline-first policy as
// a reallocating scheduler: on every insert or delete it recomputes the
// full EDF schedule and pays one reallocation for every job whose
// placement changed.
//
// This is the baseline the paper calls brittle (Section 4's introduction):
// EDF keeps the schedule tightly packed in deadline order, so a single
// insertion can shift Θ(n) jobs even when the instance is heavily
// underallocated. The reservation scheduler in internal/core exists to
// avoid exactly this cascade.
//
// For unit-length jobs, least-laxity-first (LLF) induces the same order
// as EDF (the laxity of an unfinished unit job at time t is d - t - 1,
// monotone in the deadline), so this package covers both classical
// policies. Deadline ties go to the earlier arrival, then to the smaller
// name, so the schedule is a pure function of the active set.
package edf

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Scheduler is the EDF-recompute reallocating scheduler.
type Scheduler struct {
	m       int
	jobs    map[string]jobs.Window
	current jobs.Assignment
}

var _ sched.Scheduler = (*Scheduler)(nil)

// New returns an EDF-recompute scheduler on m machines.
func New(m int) *Scheduler {
	if m < 1 {
		panic(fmt.Sprintf("edf: %d machines", m))
	}
	return &Scheduler{
		m:       m,
		jobs:    make(map[string]jobs.Window),
		current: make(jobs.Assignment),
	}
}

// Machines returns m.
func (s *Scheduler) Machines() int { return s.m }

// Active returns the number of active jobs.
func (s *Scheduler) Active() int { return len(s.jobs) }

// Jobs returns a snapshot of the active job set.
func (s *Scheduler) Jobs() []jobs.Job {
	out := make([]jobs.Job, 0, len(s.jobs))
	for name, w := range s.jobs {
		out = append(out, jobs.Job{Name: name, Window: w})
	}
	return out
}

// Assignment returns the current schedule.
func (s *Scheduler) Assignment() jobs.Assignment { return s.current.Clone() }

// Insert adds a job and recomputes the EDF schedule.
func (s *Scheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	if err := j.Validate(); err != nil {
		return metrics.Cost{}, err
	}
	if _, dup := s.jobs[j.Name]; dup {
		return metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrDuplicateJob, j.Name)
	}
	s.jobs[j.Name] = j.Window
	cost, err := s.recompute()
	if err != nil {
		delete(s.jobs, j.Name)
		return metrics.Cost{}, &sched.InfeasibleError{
			Req:    jobs.Request{Kind: jobs.Insert, Name: j.Name, Window: j.Window},
			Detail: "EDF found no feasible schedule",
		}
	}
	return cost, nil
}

// Delete removes a job and recomputes the EDF schedule.
func (s *Scheduler) Delete(name string) (metrics.Cost, error) {
	if _, ok := s.jobs[name]; !ok {
		return metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrUnknownJob, name)
	}
	delete(s.jobs, name)
	cost, err := s.recompute()
	if err != nil {
		// Removing a job cannot make a feasible instance infeasible.
		return metrics.Cost{}, fmt.Errorf("edf: delete of %q made the schedule infeasible: %w", name, err)
	}
	return cost, nil
}

// recompute rebuilds the EDF schedule and prices the change.
func (s *Scheduler) recompute() (metrics.Cost, error) {
	next, err := s.schedule()
	if err != nil {
		return metrics.Cost{}, err
	}
	moved, migrated := s.current.Diff(next)
	// Newly inserted jobs count one reallocation for their placement.
	for name := range next {
		if _, existed := s.current[name]; !existed {
			moved++
		}
	}
	s.current = next
	return metrics.Cost{Reallocations: moved, Migrations: migrated}, nil
}

// schedule runs EDF with the configured tie-break over the active set.
func (s *Scheduler) schedule() (jobs.Assignment, error) {
	list := make([]jobs.Job, 0, len(s.jobs))
	for name, w := range s.jobs {
		list = append(list, jobs.Job{Name: name, Window: w})
	}
	sort.Slice(list, func(i, k int) bool {
		a, b := list[i], list[k]
		if a.Window.Start != b.Window.Start {
			return a.Window.Start < b.Window.Start
		}
		return a.Name < b.Name
	})

	out := make(jobs.Assignment, len(list))
	h := &jobHeap{}
	i := 0
	var t jobs.Time
	for i < len(list) || h.Len() > 0 {
		if h.Len() == 0 {
			t = list[i].Window.Start
		}
		for i < len(list) && list[i].Window.Start <= t {
			heap.Push(h, list[i])
			i++
		}
		for k := 0; k < s.m && h.Len() > 0; k++ {
			j := heap.Pop(h).(jobs.Job)
			if j.Window.End <= t {
				return nil, fmt.Errorf("edf: job %q missed deadline %d at time %d", j.Name, j.Window.End, t)
			}
			out[j.Name] = jobs.Placement{Machine: k, Slot: t}
		}
		t++
	}
	return out, nil
}

// SelfCheck validates that the cached schedule is feasible for the
// active set.
func (s *Scheduler) SelfCheck() error {
	if len(s.current) != len(s.jobs) {
		return fmt.Errorf("edf: schedule covers %d of %d jobs", len(s.current), len(s.jobs))
	}
	used := make(map[jobs.Placement]string, len(s.current))
	for name, w := range s.jobs {
		p, ok := s.current[name]
		if !ok {
			return fmt.Errorf("edf: job %q unscheduled", name)
		}
		if p.Machine < 0 || p.Machine >= s.m {
			return fmt.Errorf("edf: job %q on machine %d", name, p.Machine)
		}
		if !w.Contains(p.Slot) {
			return fmt.Errorf("edf: job %q at %d outside %v", name, p.Slot, w)
		}
		if prev, clash := used[p]; clash {
			return fmt.Errorf("edf: jobs %q and %q collide at %+v", prev, name, p)
		}
		used[p] = name
	}
	return nil
}

// jobHeap orders by deadline, then arrival, then name.
type jobHeap struct {
	items []jobs.Job
}

func (h *jobHeap) Len() int { return len(h.items) }
func (h *jobHeap) Less(i, k int) bool {
	a, b := h.items[i], h.items[k]
	if a.Window.End != b.Window.End {
		return a.Window.End < b.Window.End
	}
	if a.Window.Start != b.Window.Start {
		return a.Window.Start < b.Window.Start
	}
	return a.Name < b.Name
}
func (h *jobHeap) Swap(i, k int)      { h.items[i], h.items[k] = h.items[k], h.items[i] }
func (h *jobHeap) Push(x interface{}) { h.items = append(h.items, x.(jobs.Job)) }
func (h *jobHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	h.items = old[:n-1]
	return x
}
