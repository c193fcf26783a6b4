package sched

import (
	"fmt"
	"sort"

	"repro/internal/jobs"
)

// RestoreJobs re-admits a checkpointed job set into a (typically fresh)
// scheduler: the jobs are inserted in canonical sorted-by-name order
// through the bulk path, which rebuilds every layer's internal state —
// interned IDs, trim caps, alignment tables, per-machine reservations —
// from nothing but the job set, without replaying the request history
// that produced it.
//
// Restoration is deterministic (canonical order, deterministic
// schedulers) but placements are recomputed: the restored assignment is
// a feasible schedule of the same jobs, not necessarily the
// checkpointed one.
//
// The returned slice holds the jobs that could NOT be re-admitted —
// the rejected inserts — for the caller to re-place elsewhere (the
// sharded front-end retries them through its overflow path). A
// non-batch (structural) failure is returned as an error.
func RestoreJobs(s Scheduler, js []jobs.Job) ([]jobs.Job, error) {
	if len(js) == 0 {
		return nil, nil
	}
	sorted := append([]jobs.Job(nil), js...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i].Name < sorted[k].Name })
	reqs := make([]jobs.Request, len(sorted))
	for i, j := range sorted {
		reqs[i] = jobs.Request{Kind: jobs.Insert, Name: j.Name, Window: j.Window}
	}
	_, err := ApplyBatch(s, reqs)
	var be *BatchError
	if err != nil && !asBatchError(err, &be) {
		return nil, fmt.Errorf("sched: restore: %w", err)
	}
	var failed []jobs.Job
	for i, j := range sorted {
		if be != nil && be.At(i) != nil {
			failed = append(failed, j)
		}
	}
	return failed, nil
}
