// Package multi implements the paper's Section 3 reduction from
// m-machine to single-machine reallocation scheduling for recursively
// aligned jobs.
//
// For every window W the wrapper keeps the active W-jobs balanced
// across machines: every machine holds either floor(n_W/m) or
// ceil(n_W/m) jobs of window W. Inserts delegate to a machine holding
// the fewest W-jobs (ties to the lowest index), which preserves the
// balance at zero migrations; when a delete breaks the balance, one
// W-job migrates from a machine holding the most W-jobs to the machine
// that lost one, restoring it with at most one migration per request
// (Theorem 1's migration bound). The original paper phrases this as a
// round-robin counter; the least-loaded formulation maintains the same
// floor/ceil invariant while tolerating a machine pool that changes
// size at runtime.
//
// The bookkeeping is one record per window: an int32 job count per
// machine, which every balance decision reads, and each machine's
// members as a list linked through ID-indexed next/prev slices, which
// only the delete repair walks to pick its mover (the lexicographically
// smallest name on the fullest machine).
//
// Lemma 3 guarantees that when the overall instance is 6γ-underallocated,
// each per-machine instance is γ-underallocated, so the single-machine
// schedulers keep working.
//
// The pool is elastic (sched.Elastic): AddMachines appends fresh empty
// machines without moving any job — per-window balance may then exceed
// floor/ceil by a bounded, recorded skew that subsequent deletes repair
// one migration at a time — and RemoveMachines drains the last n
// machines, re-placing each drained job on a surviving machine (one
// migration each) or evicting it if no machine can take it.
//
//reallocvet:deterministic
package multi

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Factory builds one fresh single-machine scheduler per machine.
type Factory func() sched.Scheduler

type winKey struct {
	start jobs.Time
	span  int64
}

func (k winKey) window() jobs.Window { return jobs.Window{Start: k.start, End: k.start + k.span} }

// Scheduler delegates aligned jobs across m single-machine schedulers,
// keeping each window's jobs balanced.
type Scheduler struct {
	factory  Factory
	machines []sched.Scheduler

	// names is the per-scheduler ID space; mach, win, next and prev are
	// ID-indexed (each active job's machine, window record, and
	// neighbours in its machine's member list of that window), replacing
	// string-keyed maps on the per-request path. Strings survive only in
	// the public snapshots, in error texts, and as the tie-breaker for
	// migration movers (the lexicographic-mover rule predates the IDs
	// and must keep picking the same job).
	names      *ident.Table
	mach       []int32 // machine index; -1 = unused slot
	win        []*winRec
	next, prev []ident.ID // member-list links; ident.None ends a list
	// perWin holds every window's record. Records persist once created,
	// so the ID-indexed win pointers never dangle.
	perWin map[winKey]*winRec
}

// winRec is one window's balance record.
type winRec struct {
	key   winKey
	count []int32    // machine -> jobs of this window it holds
	head  []ident.ID // machine -> first member of its list, or ident.None
	// skewCap relaxes the floor/ceil balance invariant for a window that
	// a pool resize unbalanced: after AddMachines the new machines hold
	// none of its jobs, so the per-machine spread may exceed 1. The cap
	// records that spread (0 once it is back to <= 1); operations only
	// ever shrink the spread (inserts fill valleys, deletes repair one
	// unit), so the cap decays back to the strict invariant without bulk
	// migrations.
	skewCap int
}

var (
	_ sched.Scheduler = (*Scheduler)(nil)
	_ sched.Elastic   = (*Scheduler)(nil)
)

// New builds an m-machine wrapper.
func New(m int, factory Factory) *Scheduler {
	if m < 1 {
		panic(fmt.Sprintf("multi: %d machines", m))
	}
	s := &Scheduler{
		factory:  factory,
		machines: make([]sched.Scheduler, m),
		names:    ident.New(),
		mach:     make([]int32, 1), // ID 0 is ident.None
		win:      make([]*winRec, 1),
		next:     make([]ident.ID, 1),
		prev:     make([]ident.ID, 1),
		perWin:   make(map[winKey]*winRec),
	}
	for i := range s.machines {
		s.machines[i] = factory()
	}
	return s
}

// lookup resolves an active job name to its (ID, machine index).
func (s *Scheduler) lookup(name string) (ident.ID, int, bool) {
	id, ok := s.names.Get(name)
	if !ok {
		return ident.None, 0, false
	}
	return id, int(s.mach[id]), true
}

// Machines returns the current machine count.
func (s *Scheduler) Machines() int { return len(s.machines) }

// Active returns the number of active jobs.
func (s *Scheduler) Active() int { return s.names.Len() }

// Jobs returns a snapshot of the active job set.
func (s *Scheduler) Jobs() []jobs.Job {
	out := make([]jobs.Job, 0, s.names.Len())
	s.names.Range(func(id ident.ID, name string) bool {
		out = append(out, jobs.Job{Name: name, Window: s.win[id].key.window()})
		return true
	})
	return out
}

// Assignment merges the per-machine assignments, tagging each placement
// with its machine index.
func (s *Scheduler) Assignment() jobs.Assignment {
	out := make(jobs.Assignment, s.names.Len())
	for i, m := range s.machines {
		for name, p := range m.Assignment() { //reallocvet:orderinsensitive (merge keyed by unique job name; validation reports any violation)
			out[name] = jobs.Placement{Machine: i, Slot: p.Slot}
		}
	}
	return out
}

// record returns key's window record, creating an empty one sized to
// the pool.
func (s *Scheduler) record(key winKey) *winRec {
	if w := s.perWin[key]; w != nil {
		return w
	}
	w := &winRec{key: key}
	w.resize(len(s.machines))
	s.perWin[key] = w
	return w
}

// resize grows (with empty machines) or truncates the per-machine
// tables to m machines.
func (w *winRec) resize(m int) {
	for len(w.count) < m {
		w.count = append(w.count, 0)
		w.head = append(w.head, ident.None)
	}
	w.count, w.head = w.count[:m], w.head[:m]
}

// leastLoaded returns the machine among [0, limit) holding the fewest
// of w's jobs, ties to the lowest index.
func (w *winRec) leastLoaded(limit int) int {
	best := 0
	for i := 1; i < limit; i++ {
		if w.count[i] < w.count[best] {
			best = i
		}
	}
	return best
}

// Insert delegates the job to a machine holding the fewest W-jobs.
func (s *Scheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	_, active := s.names.Get(j.Name)
	if err := sched.AdmitAligned(j, active); err != nil {
		return metrics.Cost{}, err
	}
	w := s.record(winKey{start: j.Window.Start, span: j.Window.Span()})
	idx := w.leastLoaded(len(s.machines))
	cost, err := s.machines[idx].Insert(j)
	if err != nil {
		if rerr := s.recoverMachine(idx); rerr != nil {
			return cost, rerr
		}
		return cost, err
	}
	s.commitID(s.names.Intern(j.Name), w, idx)
	w.settleSkew()
	return cost, nil
}

// Delete removes a job; if the balance breaks (some machine holds two
// more W-jobs than the one that lost a job), one W-job migrates to the
// emptier machine (at most one migration).
func (s *Scheduler) Delete(name string) (metrics.Cost, error) {
	id, idx, ok := s.lookup(name)
	if !ok {
		return metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrUnknownJob, name)
	}
	w := s.win[id]
	key := w.key
	cost, err := s.machines[idx].Delete(name)
	if err != nil {
		return cost, err
	}
	s.forget(id)
	s.names.Release(id)

	// Repair: pull one W-job from a fullest machine if it holds two more
	// than the machine that just lost a job.
	from, fromN := -1, int32(0)
	for i, n := range w.count {
		if n > fromN {
			from, fromN = i, n
		}
	}
	if from < 0 || fromN < w.count[idx]+2 {
		w.settleSkew()
		return cost, nil
	}
	mover, moverID, ok := s.anyJobOn(w, from)
	if !ok {
		return cost, fmt.Errorf("multi: balance invariant broken: no %v job on machine %d", key.window(), from)
	}
	dc, err := s.machines[from].Delete(mover)
	if err != nil {
		return cost, fmt.Errorf("multi: migration delete of %q failed: %w", mover, err)
	}
	cost.Add(dc)
	ic, err := s.machines[idx].Insert(jobs.Job{Name: mover, Window: key.window()})
	if err != nil {
		if rerr := s.recoverMachine(idx); rerr != nil {
			return cost, rerr
		}
		return cost, fmt.Errorf("multi: migration insert of %q failed: %w", mover, err)
	}
	cost.Add(ic)
	cost.Migrations++ // the mover crossed machines
	s.forget(moverID)
	s.commitID(moverID, w, idx)
	w.settleSkew()
	return cost, nil
}

// AddMachines implements sched.Elastic: n fresh machines join the pool
// and no job moves. Windows whose spread now exceeds floor/ceil get a
// recorded skew allowance that later deletes repair migration by
// migration.
func (s *Scheduler) AddMachines(n int) error {
	if n < 1 {
		return fmt.Errorf("multi: AddMachines(%d)", n)
	}
	for i := 0; i < n; i++ {
		s.machines = append(s.machines, s.factory())
	}
	for _, w := range s.perWin { //reallocvet:orderinsensitive (per-window skew bookkeeping; windows are independent)
		w.resize(len(s.machines))
		w.settleSkew()
	}
	return nil
}

// RemoveMachines implements sched.Elastic: the last n machines drain,
// and each drained job is re-placed on a surviving machine (one
// migration each, least-loaded first) or evicted if no machine accepts
// it. At most one migration per drained job; jobs on surviving machines
// never move.
func (s *Scheduler) RemoveMachines(n int) (metrics.Cost, []jobs.Job, error) {
	var total metrics.Cost
	if n < 1 || n >= len(s.machines) {
		return total, nil, fmt.Errorf("multi: RemoveMachines(%d) on a %d-machine pool", n, len(s.machines))
	}
	keep := len(s.machines) - n

	var doomed []string
	s.names.Range(func(id ident.ID, name string) bool {
		if int(s.mach[id]) >= keep {
			doomed = append(doomed, name)
		}
		return true
	})
	sort.Strings(doomed)

	var evicted []jobs.Job
	for _, name := range doomed {
		id, idx, _ := s.lookup(name)
		w := s.win[id]
		j := jobs.Job{Name: name, Window: w.key.window()}
		dc, err := s.machines[idx].Delete(name)
		if err != nil {
			return total, evicted, fmt.Errorf("multi: drain delete of %q failed: %w", name, err)
		}
		total.Add(dc)
		s.forget(id)

		// Try the surviving machines, emptiest (for this window) first.
		placed := false
		for _, t := range w.survivorsByLoad(keep) {
			ic, err := s.machines[t].Insert(j)
			if err == nil {
				total.Add(ic)
				total.Migrations++
				s.commitID(id, w, t)
				placed = true
				break
			}
			if rerr := s.recoverMachine(t); rerr != nil {
				return total, evicted, rerr
			}
		}
		if !placed {
			s.names.Release(id) // the job leaves the scheduler
			evicted = append(evicted, j)
		}
	}

	for _, m := range s.machines[keep:] {
		sched.Recycle(m) // drained machines donate their structures
	}
	s.machines = s.machines[:keep]
	for _, w := range s.perWin { //reallocvet:orderinsensitive (per-window skew bookkeeping; windows are independent)
		w.resize(keep) // the drained machines hold none of w's jobs
		w.settleSkew()
	}
	return total, evicted, nil
}

// recoverMachine rebuilds machine idx from its tracked jobs when a
// failed insert left it poisoned (sched.Poisoner); healthy rejections
// cost nothing. This keeps the pool usable under the retry paths that
// deliberately probe full machines (shard overflow, shrink eviction)
// even when the per-machine scheduler is a bare reservation core.
func (s *Scheduler) recoverMachine(idx int) error {
	if sched.Poisoned(s.machines[idx]) == nil {
		return nil
	}
	fresh := s.factory()
	var fail error
	s.names.Range(func(id ident.ID, name string) bool {
		if int(s.mach[id]) != idx {
			return true
		}
		if _, err := fresh.Insert(jobs.Job{Name: name, Window: s.win[id].key.window()}); err != nil {
			fail = fmt.Errorf("multi: rebuild of machine %d failed reinserting %q: %w", idx, name, err)
			return false
		}
		return true
	})
	if fail != nil {
		return fail
	}
	sched.Recycle(s.machines[idx])
	s.machines[idx] = fresh
	return nil
}

// Recycle implements sched.Recycler: every machine donates its
// structures and the routing ID space resets.
func (s *Scheduler) Recycle() {
	for _, m := range s.machines {
		sched.Recycle(m)
	}
	s.names.Reset()
}

// survivorsByLoad returns [0, keep) sorted by ascending count of w's
// jobs, ties to the lowest index.
func (w *winRec) survivorsByLoad(keep int) []int {
	out := make([]int, keep)
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool {
		return w.count[out[a]] < w.count[out[b]]
	})
	return out
}

// commitID records an interned job of window w on machine idx, at the
// head of the machine's member list.
func (s *Scheduler) commitID(id ident.ID, w *winRec, idx int) {
	for int(id) >= len(s.mach) {
		s.mach = append(s.mach, -1)
		s.win = append(s.win, nil)
		s.next = append(s.next, ident.None)
		s.prev = append(s.prev, ident.None)
	}
	s.mach[id] = int32(idx)
	s.win[id] = w
	head := w.head[idx]
	s.next[id], s.prev[id] = head, ident.None
	if head != ident.None {
		s.prev[head] = id
	}
	w.head[idx] = id
	w.count[idx]++
}

// forget unlinks the job from its machine's member list of its window;
// it does NOT release the ID — callers that take the job out of the
// scheduler (deletes, evictions) release it themselves, while migration
// move pairs re-commit it. The window pointer stays for the caller.
func (s *Scheduler) forget(id ident.ID) {
	w, idx := s.win[id], s.mach[id]
	next, prev := s.next[id], s.prev[id]
	if prev != ident.None {
		s.next[prev] = next
	} else {
		w.head[idx] = next
	}
	if next != ident.None {
		s.prev[next] = prev
	}
	s.next[id], s.prev[id] = ident.None, ident.None
	w.count[idx]--
	s.mach[id] = -1
}

// skew returns the max-min count of w's jobs across machines.
func (w *winRec) skew() int {
	minN, maxN := w.count[0], w.count[0]
	for _, n := range w.count[1:] {
		minN, maxN = min(minN, n), max(maxN, n)
	}
	return int(maxN - minN)
}

// settledSkew is the balance allowance the current counts call for:
// 0 (strict floor/ceil) once the spread is <= 1, otherwise the
// (never-increasing) current spread.
func (w *winRec) settledSkew() int {
	if sk := w.skew(); sk > 1 {
		return sk
	}
	return 0
}

// settleSkew re-records the window's balance allowance.
func (w *winRec) settleSkew() { w.skewCap = w.settledSkew() }

// anyJobOn returns a deterministic job of w on machine idx: the
// lexicographically smallest name, exactly as the pre-ID implementation
// picked it (a min scan of the member list instead of a full sort).
func (s *Scheduler) anyJobOn(w *winRec, idx int) (string, ident.ID, bool) {
	best, bestID := "", ident.None
	for id := w.head[idx]; id != ident.None; id = s.next[id] {
		if name := s.names.Name(id); bestID == ident.None || name < best {
			best, bestID = name, id
		}
	}
	return best, bestID, bestID != ident.None
}

// SelfCheck validates the balance invariant (floor/ceil per window,
// relaxed to the recorded skew cap for windows unbalanced by a resize)
// and the inner schedulers.
func (s *Scheduler) SelfCheck() error {
	for i, m := range s.machines {
		if err := m.SelfCheck(); err != nil {
			return fmt.Errorf("multi: machine %d: %w", i, err)
		}
	}
	// Recount jobs per window per machine from the routing entries, then
	// check every record's counts, member lists and skew cap against it.
	recount := make(map[*winRec][]int32)
	var fail error
	s.names.Range(func(id ident.ID, name string) bool {
		w := s.win[id]
		if w == nil || s.perWin[w.key] != w {
			fail = fmt.Errorf("multi: job %q has no window record", name)
			return false
		}
		idx := int(s.mach[id])
		if idx < 0 || idx >= len(s.machines) {
			fail = fmt.Errorf("multi: job %q routed to machine %d of %d", name, idx, len(s.machines))
			return false
		}
		if recount[w] == nil {
			recount[w] = make([]int32, len(s.machines))
		}
		recount[w][idx]++
		return true
	})
	if fail != nil {
		return fail
	}
	for key, w := range s.perWin { //reallocvet:orderinsensitive (validation: any violation fails the check; report order is immaterial)
		if w.key != key {
			return fmt.Errorf("multi: window %v recorded under %v", w.key.window(), key.window())
		}
		if len(w.count) != len(s.machines) || len(w.head) != len(s.machines) {
			return fmt.Errorf("multi: window %v tracks %d counts and %d lists on %d machines",
				key.window(), len(w.count), len(w.head), len(s.machines))
		}
		per := recount[w]
		if per == nil {
			per = make([]int32, len(s.machines))
		}
		for i, n := range w.count {
			if per[i] != n {
				return fmt.Errorf("multi: window %v machine %d holds %d jobs, tracked %d",
					key.window(), i, per[i], n)
			}
			listed, prev := int32(0), ident.None
			for id := w.head[i]; id != ident.None; id = s.next[id] {
				if int(id) >= len(s.mach) || s.names.Name(id) == "" || s.win[id] != w ||
					int(s.mach[id]) != i || s.prev[id] != prev {
					return fmt.Errorf("multi: window %v machine %d lists ID %d out of place", key.window(), i, id)
				}
				if listed++; listed > n {
					return fmt.Errorf("multi: window %v machine %d lists more than its %d jobs", key.window(), i, n)
				}
				prev = id
			}
			if listed != n {
				return fmt.Errorf("multi: window %v machine %d lists %d of its %d jobs", key.window(), i, listed, n)
			}
		}
		if want := w.settledSkew(); w.skewCap != want {
			return fmt.Errorf("multi: window %v records skew cap %d, its counts call for %d",
				key.window(), w.skewCap, want)
		}
		if sk := w.skew(); sk > max(1, w.skewCap) {
			return fmt.Errorf("multi: window %v spread %d exceeds allowance %d",
				key.window(), sk, max(1, w.skewCap))
		}
	}
	// Inner schedulers must agree with our routing.
	for i, m := range s.machines {
		for name := range m.Assignment() { //reallocvet:orderinsensitive (merge keyed by unique job name; validation reports any violation)
			_, idx, ok := s.lookup(name)
			if !ok || idx != i {
				return fmt.Errorf("multi: job %q on machine %d, routed to %d (tracked=%v)", name, i, idx, ok)
			}
		}
	}
	return nil
}
