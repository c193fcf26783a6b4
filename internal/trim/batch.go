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
//     rebuild at the final cap places the whole population.
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
// When the rebuild cannot place some job, the bookkeeping is undone —
// the old inner schedule was never touched — and the batch runs
// request by request, so a rejection lands on the request that caused
// it and no job admitted by an earlier request is ever dropped.
//
// A batch that contains a delete runs request by request.
package trim

import (
	"repro/internal/ident"
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
		prev := s.nStar
		admitted := make([]ident.ID, 0, last+1)
		for i, r := range reqs[:last+1] {
			_, active := s.names.Get(r.Name)
			if errs[i] = sched.AdmitAligned(jobs.Job{Name: r.Name, Window: r.Window}, active); errs[i] == nil {
				id := s.names.Intern(r.Name)
				s.setWin(id, r.Window)
				admitted = append(admitted, id)
			}
		}
		s.nStar = nStar
		rc, err := s.rebuild()
		if err != nil {
			// Releasing in reverse restores the free list, so the
			// per-request run reissues the same IDs.
			for k := len(admitted) - 1; k >= 0; k-- {
				s.names.Release(admitted[k])
			}
			s.nStar = prev
			return sched.ApplyEach(s, reqs)
		}
		costs[last] = rc
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
