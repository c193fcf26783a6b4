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

	// names is the per-scheduler ID space; mach and wins are ID-indexed
	// (machine index and window key of each active job), replacing two
	// string-keyed maps on the per-request path. Strings survive only in
	// the public snapshots, in error texts, and as the tie-breaker for
	// migration movers (the lexicographic-mover rule predates the IDs
	// and must keep picking the same job).
	names *ident.Table
	mach  []int32 // ID-indexed machine index; -1 = unused slot
	wins  []winKey
	// perWin tracks, per machine, the interned IDs of each window's jobs.
	perWin map[winKey][]idSet
	// skewCap relaxes the floor/ceil balance invariant for windows that
	// were unbalanced by a pool resize: after AddMachines the new
	// machines hold no jobs, so a window's per-machine spread may exceed
	// 1. The cap records the spread at resize time; operations only ever
	// shrink the spread (inserts fill valleys, deletes repair one unit),
	// so the cap decays back to the strict invariant without bulk
	// migrations.
	skewCap map[winKey]int

	// evicted accumulates jobs the machines' batch rebuilds shed; see
	// sched.BatchEvictor.
	evicted []string
}

type idSet map[ident.ID]struct{}

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
		wins:     make([]winKey, 1),
		perWin:   make(map[winKey][]idSet),
		skewCap:  make(map[winKey]int),
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
		out = append(out, jobs.Job{Name: name, Window: s.wins[id].window()})
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

// count returns how many key-jobs machine i holds.
func (s *Scheduler) count(sets []idSet, i int) int {
	if i >= len(sets) {
		return 0
	}
	return len(sets[i])
}

// leastLoaded returns the machine among [0, limit) holding the fewest
// key-jobs, ties to the lowest index.
func (s *Scheduler) leastLoaded(key winKey, limit int) int {
	sets := s.perWin[key]
	best, bestN := 0, -1
	for i := 0; i < limit; i++ {
		n := s.count(sets, i)
		if bestN < 0 || n < bestN {
			best, bestN = i, n
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
	key := winKey{start: j.Window.Start, span: j.Window.Span()}
	idx := s.leastLoaded(key, len(s.machines))
	cost, err := s.machines[idx].Insert(j)
	if err != nil {
		if rerr := s.recoverMachine(idx); rerr != nil {
			return cost, rerr
		}
		return cost, err
	}
	s.commit(j.Name, key, idx)
	s.settleSkew(key)
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
	key := s.wins[id]
	cost, err := s.machines[idx].Delete(name)
	if err != nil {
		return cost, err
	}
	s.forget(id, key, idx)
	s.names.Release(id)

	// Repair: pull one W-job from a fullest machine if it holds two more
	// than the machine that just lost a job.
	sets := s.perWin[key]
	from, fromN := -1, 0
	for i := range s.machines {
		if n := s.count(sets, i); n > fromN {
			from, fromN = i, n
		}
	}
	if from < 0 || fromN < s.count(sets, idx)+2 {
		s.settleSkew(key)
		return cost, nil
	}
	mover, moverID, ok := s.anyJobOn(key, from)
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
	s.forget(moverID, key, from)
	s.commitID(moverID, key, idx)
	s.settleSkew(key)
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
	for key, sets := range s.perWin { //reallocvet:orderinsensitive (per-window skew bookkeeping; windows are independent)
		for len(sets) < len(s.machines) {
			sets = append(sets, make(idSet))
		}
		s.perWin[key] = sets
		s.settleSkew(key)
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
		key := s.wins[id]
		j := jobs.Job{Name: name, Window: key.window()}
		dc, err := s.machines[idx].Delete(name)
		if err != nil {
			return total, evicted, fmt.Errorf("multi: drain delete of %q failed: %w", name, err)
		}
		total.Add(dc)
		s.forget(id, key, idx)

		// Try the surviving machines, emptiest (for this window) first.
		placed := false
		for _, t := range s.survivorsByLoad(key, keep) {
			ic, err := s.machines[t].Insert(j)
			if err == nil {
				total.Add(ic)
				total.Migrations++
				s.commitID(id, key, t)
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
	for key, sets := range s.perWin { //reallocvet:orderinsensitive (per-window skew bookkeeping; windows are independent)
		if len(sets) > keep {
			s.perWin[key] = sets[:keep]
		}
		s.settleSkew(key)
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
		if _, err := fresh.Insert(jobs.Job{Name: name, Window: s.wins[id].window()}); err != nil {
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

// survivorsByLoad returns [0, keep) sorted by ascending key-job count,
// ties to the lowest index.
func (s *Scheduler) survivorsByLoad(key winKey, keep int) []int {
	sets := s.perWin[key]
	out := make([]int, keep)
	for i := range out {
		out[i] = i
	}
	sort.SliceStable(out, func(a, b int) bool {
		return s.count(sets, out[a]) < s.count(sets, out[b])
	})
	return out
}

// commit interns the name and records the job on machine idx.
func (s *Scheduler) commit(name string, key winKey, idx int) {
	s.commitID(s.names.Intern(name), key, idx)
}

// commitID records an already-interned job on machine idx.
func (s *Scheduler) commitID(id ident.ID, key winKey, idx int) {
	for int(id) >= len(s.mach) {
		s.mach = append(s.mach, -1)
		s.wins = append(s.wins, winKey{})
	}
	s.mach[id] = int32(idx)
	s.wins[id] = key
	s.ensurePerWin(key)[idx][id] = struct{}{}
}

func (s *Scheduler) ensurePerWin(key winKey) []idSet {
	sets := s.perWin[key]
	if len(sets) < len(s.machines) {
		for len(sets) < len(s.machines) {
			sets = append(sets, make(idSet))
		}
		s.perWin[key] = sets
	}
	return sets
}

// forget removes the job's routing entry; it does NOT release the ID —
// callers that take the job out of the scheduler (deletes, evictions)
// release it themselves, while migration move pairs re-commit it.
func (s *Scheduler) forget(id ident.ID, key winKey, idx int) {
	s.mach[id] = -1
	if sets := s.perWin[key]; sets != nil {
		delete(sets[idx], id)
	}
}

// skew returns max-min key-job count across machines.
func (s *Scheduler) skew(key winKey) int {
	sets := s.perWin[key]
	minN, maxN := -1, 0
	for i := range s.machines {
		n := s.count(sets, i)
		if minN < 0 || n < minN {
			minN = n
		}
		if n > maxN {
			maxN = n
		}
	}
	return maxN - minN
}

// settleSkew re-records the window's balance allowance: back to strict
// floor/ceil once the spread is <= 1, otherwise the (never-increasing)
// current spread.
func (s *Scheduler) settleSkew(key winKey) {
	if sk := s.skew(key); sk > 1 {
		s.skewCap[key] = sk
	} else {
		delete(s.skewCap, key)
	}
}

// anyJobOn returns a deterministic W-job on the given machine: the
// lexicographically smallest name, exactly as the pre-ID implementation
// picked it (a min scan instead of a full sort).
func (s *Scheduler) anyJobOn(key winKey, idx int) (string, ident.ID, bool) {
	sets := s.perWin[key]
	if sets == nil || len(sets[idx]) == 0 {
		return "", ident.None, false
	}
	best, bestID := "", ident.None
	for id := range sets[idx] { //reallocvet:orderinsensitive (min scan: computes the lexicographic minimum, order-free by construction)
		if name := s.names.Name(id); bestID == ident.None || name < best {
			best, bestID = name, id
		}
	}
	return best, bestID, true
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
	// Recount jobs per window per machine and cross-check the tracked
	// sets.
	recount := make(map[winKey][]int)
	var fail error
	s.names.Range(func(id ident.ID, name string) bool {
		key := s.wins[id]
		if recount[key] == nil {
			recount[key] = make([]int, len(s.machines))
		}
		idx := int(s.mach[id])
		if idx < 0 || idx >= len(s.machines) {
			fail = fmt.Errorf("multi: job %q routed to machine %d of %d", name, idx, len(s.machines))
			return false
		}
		recount[key][idx]++
		return true
	})
	if fail != nil {
		return fail
	}
	for key, per := range recount { //reallocvet:orderinsensitive (validation: any violation fails the check; report order is immaterial)
		sets := s.perWin[key]
		for i, c := range per {
			if tracked := s.count(sets, i); tracked != c {
				return fmt.Errorf("multi: window %v machine %d holds %d jobs, tracked %d",
					key.window(), i, c, tracked)
			}
		}
		allowed := 1
		if c, ok := s.skewCap[key]; ok && c > allowed {
			allowed = c
		}
		if sk := s.skew(key); sk > allowed {
			return fmt.Errorf("multi: window %v spread %d exceeds allowance %d",
				key.window(), sk, allowed)
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
