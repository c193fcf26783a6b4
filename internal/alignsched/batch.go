// Bulk admission for the alignment wrapper. Window replacement is a
// pure per-request transformation, so an insert-only batch is aligned
// and checked in one pass and forwarded to the inner scheduler's bulk
// path in one call. A duplicate of a name the same batch inserts is
// left to the inner layers, which run the same check with the same
// sentinel. A batch that contains a delete runs request by request.
package alignsched

import (
	"repro/internal/align"
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
	inner := make([]jobs.Request, 0, len(reqs))
	idx := make([]int, 0, len(reqs)) // inner position -> batch index
	for i, r := range reqs {
		if errs[i] = s.admit(jobs.Job{Name: r.Name, Window: r.Window}); errs[i] != nil {
			continue
		}
		inner = append(inner, jobs.Request{Kind: jobs.Insert, Name: r.Name, Window: align.Aligned(r.Window)})
		idx = append(idx, i)
	}
	cs, err := sched.ApplyBatch(s.inner, inner)
	for k, i := range idx {
		costs[i] = cs[k]
		if errs[i] = sched.ErrAt(err, k); errs[i] == nil {
			s.setWin(s.names.Intern(reqs[i].Name), reqs[i].Window)
		}
	}
	return costs, sched.NewBatchError(errs)
}
