// Package trim implements the paper's "Trimming Windows to n" wrapper
// (Section 4): it maintains an estimate n* of the active job count
// (doubling when exceeded, halving when the count drops below n*/4) and
// trims every window to an aligned sub-window of span at most
// CeilPow2(2*γ*n*). Each time n* changes the schedule is rebuilt from
// scratch, which costs O(n) reallocations but happens at most once every
// Θ(n) requests, for an amortized O(1) overhead — exactly the paper's
// amortized argument. (The paper sketches a deamortization via even/odd
// slots; this implementation keeps the amortized variant and reports the
// rebuild cost explicitly so experiments can observe the amortization.)
//
// Trimming makes the reallocation cost of the inner scheduler a function
// of log*(n) rather than log*(Δ): with windows capped at O(γ n*), the
// number of active levels is O(log* n).
//
//reallocvet:deterministic
package trim

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Factory builds a fresh inner single-machine scheduler for each rebuild.
type Factory func() sched.Scheduler

// scratchPool recycles the name slices the rebuild paths sort jobs
// into. Rebuilds happen on every n* crossing across every trim instance
// (one per machine per shard in the full stack), so pooling the scratch
// keeps rebuild-heavy workloads from hammering the allocator.
// Pooling invariant: the slice is cleared (string references zeroed)
// before it goes back, so the pool never pins job names in memory.
var scratchPool = sync.Pool{New: func() any { s := make([]string, 0, 64); return &s }}

func takeScratch() *[]string { return scratchPool.Get().(*[]string) }

func putScratch(buf *[]string) {
	clear(*buf) // zero the string refs before pooling
	*buf = (*buf)[:0]
	scratchPool.Put(buf)
}

// Scheduler wraps an aligned single-machine scheduler with window
// trimming and n* maintenance.
type Scheduler struct {
	factory Factory
	inner   sched.Scheduler
	gamma   int64
	nStar   int

	// names is the per-scheduler ID space of the active jobs; wins holds
	// each job's original aligned window, indexed by interned ID. The
	// pair replaces a map[string]jobs.Window on the per-request path.
	names *ident.Table
	wins  []jobs.Window

	// rebuilds counts schedule rebuilds, exposed for experiments.
	rebuilds int

	// evicted accumulates pre-batch jobs a batch rebuild had to shed
	// (non-underallocated streams only); see sched.BatchEvictor.
	evicted []string
}

// setWin records the original window of an interned job.
func (s *Scheduler) setWin(id ident.ID, w jobs.Window) {
	for int(id) >= len(s.wins) {
		s.wins = append(s.wins, jobs.Window{})
	}
	s.wins[id] = w
}

// winOf returns the original window of an active job by name. The
// second result is false for inactive names.
func (s *Scheduler) winOf(name string) (jobs.Window, ident.ID, bool) {
	id, ok := s.names.Get(name)
	if !ok {
		return jobs.Window{}, ident.None, false
	}
	return s.wins[id], id, true
}

// TakeBatchEvictions implements sched.BatchEvictor: it returns and
// clears the jobs the most recent ApplyBatch shed during its rebuild
// recheck.
func (s *Scheduler) TakeBatchEvictions() []string {
	ev := s.evicted
	s.evicted = nil
	return ev
}

var _ sched.Scheduler = (*Scheduler)(nil)

// New returns a trimming wrapper. gamma is the slack factor used in the
// trim cap 2*gamma*n*; the paper's analysis wants the instance to be
// gamma-underallocated.
func New(gamma int64, factory Factory) *Scheduler {
	if gamma < 1 {
		panic(fmt.Sprintf("trim: gamma %d < 1", gamma))
	}
	return &Scheduler{
		factory: factory,
		inner:   factory(),
		gamma:   gamma,
		nStar:   1,
		names:   ident.New(),
	}
}

// Machines returns the inner scheduler's machine count.
func (s *Scheduler) Machines() int { return s.inner.Machines() }

// Active returns the number of active jobs.
func (s *Scheduler) Active() int { return s.names.Len() }

// NStar exposes the current estimate n* (for tests and experiments).
func (s *Scheduler) NStar() int { return s.nStar }

// Rebuilds returns how many full rebuilds have occurred.
func (s *Scheduler) Rebuilds() int { return s.rebuilds }

// Cap returns the current trim cap: the largest window span kept.
func (s *Scheduler) Cap() int64 {
	return mathx.CeilPow2(2 * s.gamma * int64(s.nStar))
}

// Jobs returns the active jobs with their original (untrimmed) windows.
func (s *Scheduler) Jobs() []jobs.Job {
	out := make([]jobs.Job, 0, s.names.Len())
	s.names.Range(func(id ident.ID, name string) bool {
		out = append(out, jobs.Job{Name: name, Window: s.wins[id]})
		return true
	})
	return out
}

// Assignment returns the inner scheduler's assignment; every placement is
// inside the trimmed window, hence inside the original window.
func (s *Scheduler) Assignment() jobs.Assignment { return s.inner.Assignment() }

// trimWindow reduces an aligned window to its leftmost aligned sub-window
// of span at most cap.
func trimWindow(w jobs.Window, cap int64) jobs.Window {
	if w.Span() <= cap {
		return w
	}
	return jobs.Window{Start: w.Start, End: w.Start + cap}
}

// Insert trims the job's window to the current cap and delegates.
func (s *Scheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	_, active := s.names.Get(j.Name)
	if err := sched.AdmitAligned(j, active); err != nil {
		return metrics.Cost{}, err
	}
	trimmed := jobs.Job{Name: j.Name, Window: trimWindow(j.Window, s.Cap())}
	cost, err := s.inner.Insert(trimmed)
	if err != nil {
		// A rejected insert can leave the inner scheduler poisoned
		// (mid-request reservation state). If it did, rebuild it from
		// the active set — which excludes the rejected job — so one
		// infeasible request does not take the scheduler down with it.
		// Callers that retry rejected inserts elsewhere (the sharded
		// front-end's overflow and shrink-eviction paths) rely on this.
		// Clean rejections (duplicate, misaligned, cap) skip the O(n)
		// rebuild: the inner scheduler is still healthy.
		if sched.Poisoned(s.inner) != nil {
			rc, rerr := s.rebuild()
			if rerr != nil {
				return cost, fmt.Errorf("trim: recovery rebuild after rejected insert failed: %w", rerr)
			}
			cost.Add(rc)
		}
		return cost, err
	}
	s.setWin(s.names.Intern(j.Name), j.Window)
	extra, err := s.maybeResize()
	cost.Add(extra)
	return cost, err
}

// Delete removes a job and delegates.
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
	extra, err := s.maybeResize()
	cost.Add(extra)
	return cost, err
}

// settled returns the n* that a population of n jobs moves nStar to:
// doubled while n exceeds it, halved while n is below a quarter of it.
func settled(n, nStar int) int {
	for n > nStar {
		nStar *= 2
	}
	for nStar > 1 && 4*n < nStar {
		nStar /= 2
	}
	return nStar
}

// maybeResize adjusts n* and rebuilds the inner scheduler when the
// active count crosses the doubling/halving thresholds.
func (s *Scheduler) maybeResize() (metrics.Cost, error) {
	next := settled(s.names.Len(), s.nStar)
	if next == s.nStar {
		return metrics.Cost{}, nil
	}
	s.nStar = next
	return s.rebuild()
}

// rebuild reconstructs the inner scheduler from scratch with windows
// trimmed to the new cap, counting every job whose placement changed.
func (s *Scheduler) rebuild() (metrics.Cost, error) {
	s.rebuilds++
	old := s.inner
	before := old.Assignment()
	fresh := s.factory()
	cap := s.Cap()

	scratch := takeScratch()
	defer putScratch(scratch)
	names := s.names.AppendNames((*scratch)[:0])
	sort.Strings(names)
	*scratch = names
	for _, name := range names {
		w, _, _ := s.winOf(name)
		j := jobs.Job{Name: name, Window: trimWindow(w, cap)}
		if _, err := fresh.Insert(j); err != nil {
			return metrics.Cost{}, fmt.Errorf("trim: rebuild failed inserting %q: %w", name, err)
		}
	}
	s.inner = fresh
	after := s.inner.Assignment()
	moved, migrated := before.Diff(after)
	sched.Recycle(old) // the discarded schedule donates its structures
	return metrics.Cost{Reallocations: moved, Migrations: migrated}, nil
}

// Recycle implements sched.Recycler: the wrapper recycles its inner
// scheduler and resets its ID space. The Scheduler itself is not
// pooled; the inner reservation structures are the expensive part.
func (s *Scheduler) Recycle() {
	sched.Recycle(s.inner)
	s.names.Reset()
}

// SelfCheck validates the wrapper's bookkeeping and the inner scheduler.
func (s *Scheduler) SelfCheck() error {
	if err := s.inner.SelfCheck(); err != nil {
		return err
	}
	n := s.names.Len()
	if s.inner.Active() != n {
		return fmt.Errorf("trim: inner has %d jobs, wrapper tracks %d", s.inner.Active(), n)
	}
	if n > s.nStar {
		return fmt.Errorf("trim: n=%d exceeds n*=%d", n, s.nStar)
	}
	if s.nStar > 1 && 4*n < s.nStar {
		return fmt.Errorf("trim: n=%d below n*/4 (n*=%d)", n, s.nStar)
	}
	cap := s.Cap()
	asn := s.inner.Assignment()
	var fail error
	s.names.Range(func(id ident.ID, name string) bool {
		orig := s.wins[id]
		p, ok := asn[name]
		switch {
		case !ok:
			fail = fmt.Errorf("trim: job %q missing from inner assignment", name)
		case !orig.Contains(p.Slot):
			fail = fmt.Errorf("trim: job %q at slot %d outside original window %v", name, p.Slot, orig)
		case !trimWindow(orig, cap).Contains(p.Slot):
			fail = fmt.Errorf("trim: job %q at slot %d outside trimmed window", name, p.Slot)
		}
		return fail == nil
	})
	return fail
}
