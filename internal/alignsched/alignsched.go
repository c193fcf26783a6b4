// Package alignsched implements the paper's Section 5 reduction from
// arbitrary windows to recursively aligned windows: every inserted
// window W is replaced by ALIGNED(W), a largest aligned sub-window,
// whose span is at least |W|/4. Lemma 10 shows a 4γ-underallocated
// instance stays γ-underallocated after the replacement, so composing
// this wrapper over the multi-machine reservation scheduler yields the
// full Theorem 1 scheduler for arbitrary (unaligned) windows.
package alignsched

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Scheduler aligns windows before delegating to an aligned-only inner
// scheduler.
type Scheduler struct {
	inner sched.Scheduler

	// names is the per-scheduler ID space; wins holds each active job's
	// original (unaligned) window, indexed by interned ID.
	names *ident.Table
	wins  []jobs.Window
}

// setWin records the original window of an interned job.
func (s *Scheduler) setWin(id ident.ID, w jobs.Window) {
	for int(id) >= len(s.wins) {
		s.wins = append(s.wins, jobs.Window{})
	}
	s.wins[id] = w
}

// TakeBatchEvictions implements sched.BatchEvictor. No batch sheds a
// job, so it always returns nil; it exists only because the benchmark's
// decorator table (bench/trace.go) expects every stack layer to keep
// its current set of optional interfaces.
func (s *Scheduler) TakeBatchEvictions() []string { return nil }

var _ sched.Scheduler = (*Scheduler)(nil)

// New wraps an aligned-only scheduler.
func New(inner sched.Scheduler) *Scheduler {
	return &Scheduler{inner: inner, names: ident.New()}
}

// Machines returns the inner scheduler's machine count.
func (s *Scheduler) Machines() int { return s.inner.Machines() }

// Active returns the number of active jobs.
func (s *Scheduler) Active() int { return s.names.Len() }

// Jobs returns the active jobs with their original (unaligned) windows.
func (s *Scheduler) Jobs() []jobs.Job {
	out := make([]jobs.Job, 0, s.names.Len())
	s.names.Range(func(id ident.ID, name string) bool {
		out = append(out, jobs.Job{Name: name, Window: s.wins[id]})
		return true
	})
	return out
}

// Assignment returns the inner assignment; every placement lies inside
// the aligned sub-window and therefore inside the original window.
func (s *Scheduler) Assignment() jobs.Assignment { return s.inner.Assignment() }

// admit runs Insert's static checks: a well-formed window that reaches
// past time 0, and a name that is not already active.
func (s *Scheduler) admit(j jobs.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if j.Window.End <= 0 {
		return fmt.Errorf("alignsched: window %v lies entirely before time 0", j.Window)
	}
	if _, ok := s.names.Get(j.Name); ok {
		return fmt.Errorf("%w: %q", sched.ErrDuplicateJob, j.Name)
	}
	return nil
}

// Insert replaces the job's window with ALIGNED(W) and delegates.
func (s *Scheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	if err := s.admit(j); err != nil {
		return metrics.Cost{}, err
	}
	cost, err := s.inner.Insert(jobs.Job{Name: j.Name, Window: align.Aligned(j.Window)})
	if err != nil {
		return cost, err
	}
	s.setWin(s.names.Intern(j.Name), j.Window)
	return cost, nil
}

// Delete removes an active job.
func (s *Scheduler) Delete(name string) (metrics.Cost, error) {
	id, ok := s.names.Get(name)
	if !ok {
		return metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrUnknownJob, name)
	}
	cost, err := s.inner.Delete(name)
	if err != nil {
		return cost, err
	}
	s.names.Release(id)
	return cost, nil
}

// AddMachines implements sched.Elastic when the inner scheduler does.
func (s *Scheduler) AddMachines(n int) error {
	el, ok := s.inner.(sched.Elastic)
	if !ok {
		return fmt.Errorf("%w: alignsched over %T", sched.ErrNotElastic, s.inner)
	}
	return el.AddMachines(n)
}

// RemoveMachines implements sched.Elastic when the inner scheduler
// does. Evicted jobs are returned with their original (unaligned)
// windows so the caller can re-place them elsewhere.
func (s *Scheduler) RemoveMachines(n int) (metrics.Cost, []jobs.Job, error) {
	el, ok := s.inner.(sched.Elastic)
	if !ok {
		return metrics.Cost{}, nil, fmt.Errorf("%w: alignsched over %T", sched.ErrNotElastic, s.inner)
	}
	cost, evicted, err := el.RemoveMachines(n)
	if err != nil {
		return cost, nil, err
	}
	out := make([]jobs.Job, 0, len(evicted))
	for _, j := range evicted {
		id, ok := s.names.Get(j.Name)
		if !ok {
			return cost, out, fmt.Errorf("alignsched: evicted job %q has no tracked original window", j.Name)
		}
		out = append(out, jobs.Job{Name: j.Name, Window: s.wins[id]})
		s.names.Release(id)
	}
	return cost, out, nil
}

// SelfCheck validates the wrapper and the inner scheduler.
func (s *Scheduler) SelfCheck() error {
	if err := s.inner.SelfCheck(); err != nil {
		return err
	}
	if n := s.names.Len(); s.inner.Active() != n {
		return fmt.Errorf("alignsched: inner has %d jobs, wrapper tracks %d", s.inner.Active(), n)
	}
	asn := s.inner.Assignment()
	var fail error
	s.names.Range(func(id ident.ID, name string) bool {
		orig := s.wins[id]
		p, ok := asn[name]
		switch {
		case !ok:
			fail = fmt.Errorf("alignsched: job %q missing from inner assignment", name)
		case !orig.Contains(p.Slot):
			fail = fmt.Errorf("alignsched: job %q at slot %d outside original window %v", name, p.Slot, orig)
		case !align.Aligned(orig).Contains(p.Slot):
			fail = fmt.Errorf("alignsched: job %q at slot %d outside aligned window %v", name, p.Slot, align.Aligned(orig))
		}
		return fail == nil
	})
	return fail
}
