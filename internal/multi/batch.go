// Bulk admission for the m-machine wrapper. An insert-only batch is
// routed in one pass — each job to the machine holding the fewest jobs
// of its window, exactly as Insert decides, with the bookkeeping
// committed as it goes so that the next decision sees it — and each
// machine then admits its share through its own bulk path, which is
// where the trimming layer merges its rebuilds. A machine sees its jobs
// in batch order and machines are independent, so the final schedule
// equals the per-request one whenever no insert fails. A batch that
// contains a delete runs request by request.
package multi

import (
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
	perMachine := make([][]int, len(s.machines)) // batch indices, in order
	for i, r := range reqs {
		_, active := s.names.Get(r.Name)
		if errs[i] = sched.AdmitAligned(jobs.Job{Name: r.Name, Window: r.Window}, active); errs[i] != nil {
			continue
		}
		key := winKey{start: r.Window.Start, span: r.Window.Span()}
		mi := s.leastLoaded(key, len(s.machines))
		s.commit(r.Name, key, mi)
		s.settleSkew(key)
		perMachine[mi] = append(perMachine[mi], i)
	}
	for mi, idxs := range perMachine {
		if len(idxs) == 0 {
			continue
		}
		mreqs := make([]jobs.Request, len(idxs))
		for k, i := range idxs {
			mreqs[k] = reqs[i]
		}
		cs, err := sched.ApplyBatch(s.machines[mi], mreqs)
		firstFailed := -1
		for k, i := range idxs {
			costs[i] = cs[k]
			if errs[i] = sched.ErrAt(err, k); errs[i] == nil {
				continue
			}
			s.drop(reqs[i].Name) // the job never landed
			if firstFailed < 0 {
				firstFailed = i
			}
		}
		s.dropEvicted(sched.TakeBatchEvictions(s.machines[mi]))
		if firstFailed >= 0 {
			// A failed insert can poison a bare reservation core; the
			// rebuild replays the machine's tracked jobs, so it runs
			// once the bookkeeping above is settled.
			if rerr := s.recoverMachine(mi); rerr != nil {
				errs[firstFailed] = rerr
			}
		}
	}
	return costs, sched.NewBatchError(errs)
}

// drop erases the routing entry of a job that is not, or no longer, on
// its machine.
func (s *Scheduler) drop(name string) {
	if id, idx, ok := s.lookup(name); ok {
		key := s.wins[id]
		s.forget(id, key, idx)
		s.names.Release(id)
		s.settleSkew(key)
	}
}

// dropEvicted erases the wrapper bookkeeping for jobs a machine's batch
// rebuild shed, and re-exposes them to the layer above.
func (s *Scheduler) dropEvicted(shed []string) {
	for _, name := range shed {
		s.drop(name)
		s.evicted = append(s.evicted, name)
	}
}

// TakeBatchEvictions implements sched.BatchEvictor.
func (s *Scheduler) TakeBatchEvictions() []string {
	ev := s.evicted
	s.evicted = nil
	return ev
}
