// Batched admission for the sharded front-end. A batch that contains a
// delete runs request by request, in order, through the same exec step
// as Apply, so it returns exactly the costs, errors and schedule of
// applying its requests one at a time — the contract every stack layer
// keeps through sched.ApplyEach.
//
// An insert-only batch (a preload, a client Batch frame of inserts)
// keeps a bulk path. It reserves every name under one routing-table
// lock hold, serves each shard's share through the inner stack's bulk
// path (sched.ApplyBatch) under one hold of that shard's lock, so trim
// coalesces the share's n* rebuilds, and then sends each insert a shard
// rejected as locally infeasible through the same overflow hop as
// Apply, in batch order.
//
// Either way the batch holds the admission gate throughout and, under
// a WAL, is logged as one batch record. Requests on other shards run
// concurrently with the batch, exactly as with independent Apply calls
// from different goroutines.
package shard

import (
	"fmt"

	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/wal"
)

var _ sched.BatchScheduler = (*Scheduler)(nil)

// ApplyBatch serves the batch on the caller's goroutine. It is
// synchronous (like Apply) and safe for concurrent use. See
// sched.BatchScheduler for the shared bulk semantics; after Close every
// request fails with ErrClosed.
//
// A batch holds the admission gate until its record is logged, so no
// resize or checkpoint runs inside it. With a WAL attached it holds the
// gate exclusively: its one record covers requests on several shards,
// and only with no other request in flight does every shard execute its
// share where the record sits in the log.
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

	if sched.InsertsOnly(reqs) {
		s.applyInserts(reqs, costs, errs)
	} else {
		for i, r := range reqs {
			if errs[i] = r.Validate(); errs[i] != nil {
				continue
			}
			var sh *shard
			if sh, costs[i], errs[i] = s.exec(r, 0); sh != nil {
				sh.unlock()
			}
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

// applyInserts is ApplyBatch's bulk path for an insert-only batch,
// under a gate the caller holds. A name the batch inserts twice is a
// duplicate at its second insert, as the first one's reservation holds
// it.
func (s *Scheduler) applyInserts(reqs []jobs.Request, costs []metrics.Cost, errs []error) {
	n := len(s.shards)
	primary := make([]int, len(reqs))
	for i, r := range reqs {
		if errs[i] = r.Validate(); errs[i] == nil {
			primary[i] = s.policy.Route(r.Name, n)
		}
	}
	ids := make([]ident.ID, len(reqs))
	groups := make([][]int, n)
	s.mu.Lock()
	for i, r := range reqs {
		if errs[i] != nil {
			continue
		}
		id := s.names.Intern(r.Name)
		if _, dup := s.routeOf(id); dup {
			errs[i] = duplicateErr(r.Name)
			continue
		}
		s.setRoute(id, reservedShard)
		s.inflight[primary[i]]++
		ids[i] = id
		groups[primary[i]] = append(groups[primary[i]], i)
	}
	s.mu.Unlock()

	reroute := make([]bool, len(reqs))
	sub := make([]jobs.Request, 0, len(reqs))
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sub = sub[:0]
		for _, i := range idxs {
			sub = append(sub, reqs[i])
		}
		sh := s.shards[si]
		start := monotonicNS()
		sh.lock(0)
		sh.stats.Batches++
		cs, err := sched.ApplyBatch(sh.inner, sub)
		s.mu.Lock()
		for k, i := range idxs {
			costs[i], errs[i] = cs[k], sched.ErrAt(err, k)
			if reroute[i] = sh.tally(costs[i], errs[i], n > 1, false); !reroute[i] {
				s.settle(ids[i], si, errs[i])
			}
		}
		s.mu.Unlock()
		// Every request of the share records its lock wait plus the
		// share's execution.
		sh.lat.RecordN(monotonicNS()-start, uint64(len(idxs)))
		sh.unlock()
	}
	for i, r := range reqs {
		if !reroute[i] {
			continue
		}
		fb, sh, c, err := s.hop(r, primary[i])
		s.commitInsert(ids[i], fb, err)
		sh.unlock()
		costs[i], errs[i] = c, err
	}
}
