// Bulk admission for the m-machine wrapper. An insert-only batch is
// routed in one pass — each job to the machine holding the fewest jobs
// of its window, exactly as Insert decides, with the bookkeeping
// committed as it goes so that the next decision sees it — and each
// machine then admits its share through its own bulk path, which is
// where the trimming layer merges its rebuilds. A machine sees its jobs
// in batch order and machines are independent, so the final schedule
// equals the per-request one whenever no insert fails. A machine whose
// merged rebuild cannot place everyone serves its share request by
// request, so no machine ever loses a job it already held. A batch
// that contains a delete runs request by request.
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
		w := s.record(winKey{start: r.Window.Start, span: r.Window.Span()})
		mi := w.leastLoaded(len(s.machines))
		s.commitID(s.names.Intern(r.Name), w, mi)
		w.settleSkew()
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

// drop erases the routing entry of a job that did not land on its
// machine.
func (s *Scheduler) drop(name string) {
	if id, ok := s.names.Get(name); ok {
		w := s.win[id]
		s.forget(id)
		s.names.Release(id)
		w.settleSkew()
	}
}

// TakeBatchEvictions implements sched.BatchEvictor. No batch sheds a
// job, so it always returns nil; it exists only because the benchmark's
// decorator table (bench/trace.go) expects every stack layer to keep
// its current set of optional interfaces.
func (s *Scheduler) TakeBatchEvictions() []string { return nil }
