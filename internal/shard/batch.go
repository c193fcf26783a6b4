// Batched admission for the sharded front-end. A batch runs request by
// request, in order, through the same exec step as Apply, so it returns
// exactly the costs, errors, overflow hops and schedule of applying its
// requests one at a time, as every stack layer does for a batch that
// contains a delete (sched.ApplyEach). The stack layers' bulk insert
// paths serve checkpoint restore (RestoreJobs), which does not pass
// through here.
//
// The batch holds the admission gate throughout and, under a WAL, is
// logged as one batch record. Without a WAL, requests on other shards
// run concurrently with the batch, exactly as with independent Apply
// calls from different goroutines.
package shard

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/wal"
)

var _ sched.BatchScheduler = (*Scheduler)(nil)

// ApplyBatch serves the batch on the caller's goroutine. It is
// synchronous (like Apply) and safe for concurrent use. See
// sched.BatchScheduler for the shared batch semantics; after Close
// every request fails with ErrClosed.
//
// A batch holds the admission gate until its record is logged, so no
// resize or checkpoint runs inside it. With a WAL attached it holds the
// gate exclusively: its one record covers requests on several shards,
// and only with no other request in flight does every request execute
// where the record sits in the log.
func (s *Scheduler) ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error) {
	costs := make([]metrics.Cost, len(reqs))
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return costs, nil
	}
	if s.log != nil {
		s.gate.Lock()
		defer s.gate.Unlock()
	} else {
		s.gate.RLock()
		defer s.gate.RUnlock()
	}
	if s.closed {
		for i := range errs {
			errs[i] = ErrClosed
		}
		return costs, sched.NewBatchError(errs)
	}

	for i, r := range reqs {
		if errs[i] = r.Validate(); errs[i] != nil {
			continue
		}
		var sh *shard
		if sh, costs[i], errs[i] = s.exec(r); sh != nil {
			sh.unlock()
		}
	}
	err := sched.NewBatchError(errs)
	if s.log != nil {
		// Group-commit the whole batch as ONE record before it is
		// acknowledged. The full original batch is logged (including
		// failed requests — their trim-recovery rebuilds mutate inner
		// state) so a replay through this same ApplyBatch path
		// reproduces every execution and every side effect exactly.
		if werr := s.log.Append(wal.BatchRecord(reqs)); werr != nil {
			// Surface the broken durability promise without discarding
			// the batch verdict: %w keeps the *BatchError reachable via
			// errors.As for callers mapping failures to indices.
			if err == nil {
				err = fmt.Errorf("shard: batch applied but WAL append failed: %w", werr)
			} else {
				err = fmt.Errorf("shard: batch applied but WAL append failed (%v); batch result: %w", werr, err)
			}
		}
	}
	return costs, err
}
