// Bulk admission for the trimming wrappers.
//
// A rebuild erases all placement history — the rebuilt schedule is a
// pure function of (active job set, trim cap) — so when an insert-only
// batch (a checkpoint restore, a preload) is going to double n*, every
// inner operation before the batch's LAST doubling is wasted work:
// whatever it places is rebuilt from scratch moments later. ApplyBatch
// finds that doubling in one pass and splits the batch there:
//
//   - Inserts up to and including the last doubling are admitted as
//     bookkeeping (the inner scheduler is not consulted), then ONE
//     rebuild at the final cap places the whole population. A job the
//     per-request path would have rejected fails the rebuild instead,
//     is dropped, and reports the rejection on its own request.
//   - Inserts after the last doubling (the whole batch when there is
//     none) go through Insert.
//
// The per-request path's last rebuild happens at the same request with
// the same job set and the same cap, and rebuilt schedules are
// deterministic, so when no insert fails the final schedule is the
// per-request one. The costs differ only in where the rebuild bill
// lands: every admitted job still reports its first placement on its
// own request, and the doubling request carries the jobs the one
// rebuild moved.
//
// A batch that contains a delete runs request by request. So does every
// batch on the deamortized wrapper (Incremental), which deliberately
// does not implement sched.BatchScheduler: its even/odd parity
// discipline already bounds a request to O(1) inner operations, and
// deferring the per-request transition moves would change the parity
// state each insert observes.
package trim

import (
	"sort"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

var _ sched.BatchScheduler = (*Scheduler)(nil)

// ApplyBatch implements sched.BatchScheduler.
func (s *Scheduler) ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error) {
	if !sched.InsertsOnly(reqs) {
		return sched.ApplyEach(s, reqs)
	}
	costs := make([]metrics.Cost, len(reqs))
	errs := make([]error, len(reqs))
	last, nStar := s.lastDoubling(reqs)
	if last >= 0 {
		idxOf := make(map[string]int, last+1)
		for i, r := range reqs[:last+1] {
			_, active := s.names.Get(r.Name)
			if errs[i] = sched.AdmitAligned(jobs.Job{Name: r.Name, Window: r.Window}, active); errs[i] == nil {
				s.setWin(s.names.Intern(r.Name), r.Window)
				idxOf[r.Name] = i
			}
		}
		s.nStar = nStar
		costs[last] = s.rebuildDropping(idxOf, errs)
		for i := range reqs[:last+1] {
			if errs[i] == nil {
				costs[i].Reallocations++ // the job's first placement
			}
		}
	}
	for i := last + 1; i < len(reqs); i++ {
		costs[i], errs[i] = s.Insert(jobs.Job{Name: reqs[i].Name, Window: reqs[i].Window})
	}
	return costs, sched.NewBatchError(errs)
}

// lastDoubling returns the index of the last insert of the batch that
// pushes the population past n*, or -1, and the n* the batch ends on,
// assuming every insert that passes the static checks succeeds.
func (s *Scheduler) lastDoubling(reqs []jobs.Request) (last, nStar int) {
	seen := make(map[string]bool, len(reqs)) // names the batch itself adds
	n, nStar, last := s.names.Len(), s.nStar, -1
	for i, r := range reqs {
		_, active := s.names.Get(r.Name)
		if sched.AdmitAligned(jobs.Job{Name: r.Name, Window: r.Window}, active || seen[r.Name]) != nil {
			continue
		}
		seen[r.Name] = true
		n++
		if next := settled(n, nStar); next != nStar {
			last, nStar = i, next
		}
	}
	return last, nStar
}

// rebuildDropping is rebuild with per-job failure recovery: a job that
// fails the rebuild's feasibility recheck is dropped from the active
// set instead of aborting. A job this batch admitted reports the
// rejection on its own request (via idxOf); a pre-batch job becomes a
// batch eviction (sched.BatchEvictor) so wrapping layers erase their
// bookkeeping and the top-level caller sees it in the batch error —
// NOT a failure of whichever request triggered the rebuild, whose own
// work may well have succeeded. The scheduler is always left
// consistent. When drops change the population enough to move a
// threshold, the rebuild runs again at the settled cap (bounded
// retries).
func (s *Scheduler) rebuildDropping(idxOf map[string]int, errs []error) metrics.Cost {
	var total metrics.Cost
	drop := func(name string, err error) {
		if id, ok := s.names.Get(name); ok {
			s.names.Release(id)
		}
		if i, ok := idxOf[name]; ok {
			errs[i] = err
			delete(idxOf, name)
		} else {
			s.evicted = append(s.evicted, name)
		}
	}
	for {
		old := s.inner
		before := old.Assignment()
		// Build a fresh inner schedule. A rejection can poison the
		// half-built scheduler (the reservation core's mid-request
		// state); when it does, restart the build without the dropped
		// job — every restart shrinks the population, so this
		// terminates. Clean rejections just drop and continue.
		var fresh sched.Scheduler
		scratch := takeScratch()
		for {
			s.rebuilds++
			if fresh != nil {
				sched.Recycle(fresh) // poisoned half-build: reuse its structures
			}
			fresh = s.factory()
			cap := s.Cap()
			names := s.names.AppendNames((*scratch)[:0])
			sort.Strings(names)
			*scratch = names
			poisoned := false
			for _, name := range names {
				w, _, _ := s.winOf(name)
				j := jobs.Job{Name: name, Window: trimWindow(w, cap)}
				if _, err := fresh.Insert(j); err != nil {
					drop(name, err)
					if sched.Poisoned(fresh) != nil {
						poisoned = true
						break
					}
				}
			}
			if !poisoned {
				break
			}
		}
		putScratch(scratch)
		s.inner = fresh
		moved, migrated := before.Diff(s.inner.Assignment())
		sched.Recycle(old)
		total.Add(metrics.Cost{Reallocations: moved, Migrations: migrated})

		// Re-settle the thresholds after drops and rebuild again at the
		// moved cap. This terminates: a round repeats only when the
		// previous one dropped at least one job (otherwise n is unchanged
		// and the settled n* matches), and the population only shrinks.
		next := settled(s.names.Len(), s.nStar)
		if next == s.nStar {
			break
		}
		s.nStar = next
	}
	return total
}
