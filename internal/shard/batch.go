// Batched admission for the sharded front-end. ApplyBatch groups a
// request batch by target shard in one routing pass (inserts by the
// routing policy, deletes by the routing table — a delete of a name the
// batch itself inserts rides in the same group, after its insert), runs
// the per-shard sub-batches one after another on the caller, each under
// one hold of its shard's lock, and reconciles the failures that need a
// second placement — inserts a shard rejected as locally infeasible (the
// overflow path) and the deletes that trail them — in ONE second pass
// instead of one hop per request.
//
// Compared to per-request Apply, a batch pays one routing-table lock
// acquisition per request but only one shard-lock acquisition per
// involved shard, and each shard serves its sub-batch through the inner
// stack's own bulk path (alignment -> balanced delegation -> trimming),
// so the trim layer's rebuild coalescing applies per shard sub-batch.
//
// Ordering: requests on the same shard execute in batch order; other
// requests on other shards run concurrently with the batch, exactly as
// with independent Apply calls from different goroutines. Per-name
// ordering is preserved because a name's insert and delete always land
// in the same group.
package shard

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/wal"
)

var _ sched.BatchScheduler = (*Scheduler)(nil)

// routeScratch is ApplyBatch's reusable routing state: the per-shard
// groups, the per-request shard/primary tables, the sub-batch buffer
// every group is copied into in turn, and the per-name overlay maps of
// the routing and reconcile passes. Pooled so a steady stream of
// batches reuses the buffers. Pooling invariant: the maps and the
// sub-batch buffer are cleared (dropping their name strings) and the
// slices resliced to zero length before return-to-pool.
type routeScratch struct {
	groups       [][]int
	shardOf      []int
	primaries    []int
	sub          []jobs.Request
	rerouting    []bool
	live         map[string]int
	deletedAt    map[string]int
	deferredName map[string]bool
	overflow     map[int]bool
	retriedTo    map[string]int
}

var routePool = sync.Pool{New: func() any {
	return &routeScratch{
		live:         make(map[string]int),
		deletedAt:    make(map[string]int),
		deferredName: make(map[string]bool),
		overflow:     make(map[int]bool),
		retriedTo:    make(map[string]int),
	}
}}

func takeRoute(shards, reqs int) *routeScratch {
	sc := routePool.Get().(*routeScratch)
	sc.resetGroups(shards)
	if cap(sc.shardOf) < reqs {
		sc.shardOf = make([]int, reqs)
		sc.primaries = make([]int, reqs)
		sc.sub = make([]jobs.Request, reqs)
		sc.rerouting = make([]bool, reqs)
	}
	sc.shardOf = sc.shardOf[:reqs]
	sc.primaries = sc.primaries[:reqs]
	return sc
}

// resetGroups readies the per-shard group lists for a routing pass,
// keeping each shard's backing array.
func (sc *routeScratch) resetGroups(shards int) {
	for len(sc.groups) < shards {
		sc.groups = append(sc.groups, nil)
	}
	sc.groups = sc.groups[:shards]
	for i := range sc.groups {
		sc.groups[i] = sc.groups[i][:0]
	}
}

func putRoute(sc *routeScratch) {
	clear(sc.live)
	clear(sc.deletedAt)
	clear(sc.deferredName)
	clear(sc.overflow)
	clear(sc.retriedTo)
	routePool.Put(sc)
}

// ApplyBatch serves the batch as one sub-batch per shard, on the
// caller's goroutine. It is synchronous (like Apply) and safe for
// concurrent use. See sched.BatchScheduler for the shared bulk
// semantics; after Close every request fails with ErrClosed.
//
// A batch holds the admission gate from routing until its record is
// logged, so no resize or checkpoint runs inside it. With a WAL attached
// it holds the gate exclusively: its one record covers sub-batches on
// several shards, and only with no other request in flight does every
// shard execute its share where the record sits in the log.
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

	sc := takeRoute(len(s.shards), len(reqs))
	defer putRoute(sc)
	deferred := s.routeBatch(sc, reqs, errs)
	s.runGroups(sc, reqs, costs, errs, nil)
	s.reconcile(sc, reqs, deferred, costs, errs)
	err := sched.NewBatchError(errs)
	if s.log != nil {
		// Group-commit the whole batch as ONE record before it is
		// acknowledged. The full original batch is logged (including
		// failed requests — their trim-recovery rebuilds mutate inner
		// state) so a replay through this same ApplyBatch path
		// reproduces the routing, the sub-batches, and every side
		// effect exactly.
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

// routeBatch validates and routes every request, reserving insert names
// in the routing table (so concurrent inserts of the same name are
// rejected as duplicates, exactly like the per-request path). The whole
// batch is routed under ONE routing-table lock acquisition — the main
// front-end amortization — with one exception: a re-insert of a name
// the batch deletes on a DIFFERENT shard than its routing primary is
// deferred to the reconcile pass (it must not
// execute before the delete, and cross-shard sub-batches are
// unordered). Same-name request chains on one shard ride in one group,
// in batch order, so a batch may freely insert, delete, and re-insert a
// name — exactly like back-to-back Apply calls.
//
// It fills sc.groups with the per-shard groups of batch indices (in
// batch order) and sc.shardOf with each routed request's shard (-1 when
// not routed in pass 1), and returns the deferred request indices.
func (s *Scheduler) routeBatch(sc *routeScratch, reqs []jobs.Request, errs []error) []int {
	groups := sc.groups
	shardOf := sc.shardOf
	primaries := sc.primaries
	for i, r := range reqs {
		shardOf[i] = -1
		primaries[i] = -1
		if err := r.Validate(); err != nil {
			errs[i] = err
		} else if r.Kind == jobs.Insert {
			primaries[i] = s.policy.Route(r.Name, len(s.shards))
		}
	}

	// Per-name batch state: live tracks names an in-batch insert owns
	// (value: its shard), deletedAt names whose latest in-batch request
	// is a delete (value: the delete's shard), deferredName names whose
	// chain moved to the reconcile pass — every later request on such a
	// name defers too, preserving its order.
	live := sc.live
	deletedAt := sc.deletedAt
	deferredName := sc.deferredName
	var deferred []int
	s.mu.Lock()
	for i, r := range reqs {
		if errs[i] != nil {
			continue
		}
		if deferredName[r.Name] {
			deferred = append(deferred, i)
			continue
		}
		switch r.Kind {
		case jobs.Insert:
			if _, isLive := live[r.Name]; isLive {
				errs[i] = duplicateErr(r.Name)
				continue
			}
			if ds, wasDeleted := deletedAt[r.Name]; wasDeleted {
				// Re-insert after an in-batch delete. On the same shard it
				// rides behind the delete (the existing routing entry keeps
				// blocking concurrent inserts); across shards it defers.
				if primaries[i] == ds {
					s.inflight[ds]++
					shardOf[i] = ds
					groups[ds] = append(groups[ds], i)
					live[r.Name] = ds
					delete(deletedAt, r.Name)
					continue
				}
				deferredName[r.Name] = true
				deferred = append(deferred, i)
				continue
			}
			id := s.names.Intern(r.Name)
			if _, dup := s.routeOf(id); dup {
				errs[i] = duplicateErr(r.Name)
				continue
			}
			s.setRoute(id, reservedShard)
			s.inflight[primaries[i]]++
			shardOf[i] = primaries[i]
			groups[primaries[i]] = append(groups[primaries[i]], i)
			live[r.Name] = primaries[i]
		case jobs.Delete:
			// A delete of a name this batch owns rides behind it on the
			// same shard; its outcome then follows the chain's outcome,
			// like back-to-back Apply calls would.
			if si, isLive := live[r.Name]; isLive {
				shardOf[i] = si
				groups[si] = append(groups[si], i)
				delete(live, r.Name)
				deletedAt[r.Name] = si
				continue
			}
			if ds, wasDeleted := deletedAt[r.Name]; wasDeleted {
				// Double delete: execute on the chain's shard, where the
				// inner scheduler reports the truthful verdict.
				shardOf[i] = ds
				groups[ds] = append(groups[ds], i)
				continue
			}
			_, idx, ok := s.trackedID(r.Name)
			if !ok || idx == reservedShard {
				errs[i] = fmt.Errorf("%w: %q", sched.ErrUnknownJob, r.Name)
				continue
			}
			shardOf[i] = idx
			groups[idx] = append(groups[idx], i)
			deletedAt[r.Name] = idx
		}
	}
	s.mu.Unlock()
	return deferred
}

// runGroups runs every non-empty group of sc.groups on its shard, one
// after another, each under one hold of the shard's lock. A non-nil
// overflow set marks the reconcile round (failures are terminal there)
// and names the requests that are genuine overflow retries (counted as
// Overflow on success).
func (s *Scheduler) runGroups(sc *routeScratch, reqs []jobs.Request, costs []metrics.Cost, errs []error, overflow map[int]bool) {
	for si, idxs := range sc.groups {
		if len(idxs) == 0 {
			continue
		}
		sh := s.shards[si]
		start := monotonicNS()
		sh.lock(0)
		s.execBatchOn(si, sh, sc, reqs, idxs, costs, errs, overflow)
		// Every request of the sub-batch shares its lock wait plus
		// execution — the same span the per-request path records.
		sh.lat.RecordN(monotonicNS()-start, uint64(len(idxs)))
		sh.unlock()
	}
}

// execBatchOn runs one shard's sub-batch under the shard's lock: it
// serves the requests through the inner scheduler's bulk path, folds
// the per-request statistics, and commits the routing-table bookkeeping
// before the lock is released — so self-checks and snapshots that take
// the lock next observe a consistent shard.
func (s *Scheduler) execBatchOn(si int, sh *shard, sc *routeScratch, reqs []jobs.Request, idxs []int, costs []metrics.Cost, errs []error, overflow map[int]bool) {
	st := &sh.stats
	sub := sc.sub[:len(idxs)]
	for k, i := range idxs {
		sub[k] = reqs[i]
	}
	cs, err := sched.ApplyBatch(sh.inner, sub)
	clear(sub) // drop the name strings before the scratch is pooled
	st.Batches++
	retryable := overflow == nil && len(s.shards) > 1
	rerouting := sc.rerouting[:len(idxs)]
	for k, i := range idxs {
		e := sched.ErrAt(err, k)
		st.Requests++
		rerouting[k] = e != nil && retryable && reqs[i].Kind == jobs.Insert && errors.Is(e, sched.ErrInfeasible)
		switch {
		case rerouting[k]:
			st.Rerouted++
		case e != nil:
			st.Failures++
		case overflow[i] && reqs[i].Kind == jobs.Insert:
			st.Overflow++
		}
		st.Cost.Add(cs[k])
		costs[i] = cs[k]
		errs[i] = e
	}
	// Commit the routing-table bookkeeping for the whole sub-batch under
	// one lock acquisition.
	s.mu.Lock()
	for k, i := range idxs {
		switch reqs[i].Kind {
		case jobs.Insert:
			if rerouting[k] {
				// Keep the reservation: the reconcile pass retries the
				// insert on a fallback shard or settles the failure.
				continue
			}
			s.inflight[si]--
			if errs[i] != nil {
				// Drop the reservation — but only a reservation: a
				// ride-behind re-insert has no reservedShard entry of its
				// own (its chain's preceding delete may have failed,
				// leaving the committed entry in place).
				if id, v, ok := s.trackedID(reqs[i].Name); ok && v == reservedShard {
					s.dropRoute(id)
				}
				continue
			}
			// Intern, not Get: a ride-behind re-insert follows its
			// chain's delete, which released the name's previous ID in
			// this same commit loop.
			s.setRoute(s.names.Intern(reqs[i].Name), si)
			s.loads[si]++
			s.active++
		case jobs.Delete:
			if errs[i] == nil {
				if id, _, ok := s.trackedID(reqs[i].Name); ok {
					s.dropRoute(id)
					s.loads[si]--
					s.active--
				}
			}
		}
	}
	s.mu.Unlock()
}

// reconcile runs the single second pass over the batch: the requests
// routeBatch deferred (cross-shard re-insert chains, which must run
// after pass 1's deletes), infeasible inserts retrying on the
// least-loaded other shard (overflow), and unknown-job deletes whose
// name belongs to a retried insert. Whatever still fails is terminal.
func (s *Scheduler) reconcile(sc *routeScratch, reqs []jobs.Request, deferred []int, costs []metrics.Cost, errs []error) {
	// Pass 1's groups are fully served: reuse the scratch for the
	// reconcile groups. The overlay maps are reused likewise (the
	// overflow map must be non-nil even when empty — execBatchOn reads
	// nil as "this is pass 1").
	sc.resetGroups(len(s.shards))
	groups := sc.groups
	shardOf := sc.shardOf
	overflow := sc.overflow
	any := false

	// Deferred chains route against the post-pass-1 routing table, with
	// the same in-batch ordering rules as routeBatch.
	clear(sc.live)
	live := sc.live
	for _, i := range deferred {
		r := reqs[i]
		switch r.Kind {
		case jobs.Insert:
			primary := s.policy.Route(r.Name, len(s.shards))
			s.mu.Lock()
			if _, isLive := live[r.Name]; isLive {
				s.mu.Unlock()
				errs[i] = duplicateErr(r.Name)
				continue
			}
			id := s.names.Intern(r.Name)
			if _, dup := s.routeOf(id); dup {
				// The chain's pass-1 delete failed (or a concurrent insert
				// won the name): same verdict back-to-back Apply gives.
				s.mu.Unlock()
				errs[i] = duplicateErr(r.Name)
				continue
			}
			s.setRoute(id, reservedShard)
			s.inflight[primary]++
			s.mu.Unlock()
			shardOf[i] = primary
			groups[primary] = append(groups[primary], i)
			live[r.Name] = primary
			any = true
		case jobs.Delete:
			if si, isLive := live[r.Name]; isLive {
				shardOf[i] = si
				groups[si] = append(groups[si], i)
				delete(live, r.Name)
				any = true
				continue
			}
			errs[i] = fmt.Errorf("%w: %q", sched.ErrUnknownJob, r.Name)
		}
	}

	retriedTo := sc.retriedTo
	for i, r := range reqs {
		if errs[i] == nil || shardOf[i] < 0 {
			continue
		}
		switch {
		case r.Kind == jobs.Insert && len(s.shards) > 1 && errors.Is(errs[i], sched.ErrInfeasible):
			fb := s.leastLoaded(shardOf[i])
			s.mu.Lock()
			s.inflight[shardOf[i]]--
			s.inflight[fb]++
			s.mu.Unlock()
			groups[fb] = append(groups[fb], i)
			overflow[i] = true
			retriedTo[r.Name] = fb
			any = true
		case r.Kind == jobs.Delete && errors.Is(errs[i], sched.ErrUnknownJob):
			if fb, ok := retriedTo[r.Name]; ok {
				// The delete trailed an insert that is being retried on
				// fb; follow it there, behind the insert.
				groups[fb] = append(groups[fb], i)
				any = true
			}
		}
	}
	if any {
		s.runGroups(sc, reqs, costs, errs, overflow)
	}
}
