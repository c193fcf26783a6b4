// Package shard implements a thread-safe, horizontally sharded front-end
// over the single-threaded reallocating schedulers of this repository.
//
// The machine pool is partitioned into S independent shards, each owning
// a contiguous machine range and one inner sched.Scheduler (typically a
// full Theorem 1 stack). Requests route to a primary shard by consistent
// hashing of the job name; an insert the primary rejects as infeasible
// overflows to the least-loaded shard. A shard is its inner scheduler,
// its statistics and a one-slot lock: every request runs on its caller's
// goroutine while it holds its shard's lock, so independent shards serve
// requests in parallel and requests on one shard wait their turn. A
// waiter polls the held lock briefly before it parks, and parked
// waiters take it in arrival order. Every request's lock wait plus
// execution lands in a per-shard HDR histogram surfaced through Report.
//
// Two request paths are exposed: Apply (and the Insert/Delete methods of
// sched.Scheduler) serves one request and returns its cost, and
// ApplyBatch (batch.go) serves a request slice request by request,
// through the same steps as Apply. Both are synchronous and safe for
// any number of concurrent callers, with one contract: requests that
// touch the same job name must not be in flight concurrently (issue a
// delete after its insert returned); requests for different names are
// unordered across shards by design.
//
// The machine pool is elastic: Resize and ResizeShard grow or shrink
// shards' machine ranges at runtime with bounded migrations — growing
// never moves a job, shrinking re-places only the jobs that lived on
// the drained machines (first within the shard, then on the
// least-loaded other shards). Per-resize migration counts land in the
// shard report.
//
// One admission gate orders everything. Requests and reads hold its
// shared side from routing until their ack returns, WAL group commit
// included. Resize, ResizeShard, Checkpoint, Close and a logged
// ApplyBatch hold it exclusively: they are barriers that run with no
// request in flight, so each executes, and logs, at an exact cut of
// the request stream.
//
// Under a WAL a request enqueues its record while it still holds its
// shard's lock, so the records of one shard reach the log in execution
// order, and waits for its group commit after it releases the lock.
// The one exception is an insert that overflows: its failed attempt on
// the primary can still change the primary's state (trim's recovery
// rebuild), but its one record is enqueued under the fallback's lock,
// so a later request on the primary can reach the log before it.
//
// Sharding trades the paper's global cost bounds for throughput: each
// shard preserves Theorem 1's guarantees on its own machine range, but
// underallocation is only enforced shard-locally, which is why overflow
// routing exists. Report exposes the per-shard cost breakdown so callers
// can watch the balance.
//
//reallocvet:deterministic
package shard

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hdr"
	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/wal"
)

// ErrClosed reports a request sent to a closed scheduler. It aliases
// fault.ErrClosed, the repo-wide sentinel for the failure class.
var ErrClosed = fault.ErrClosed

// ErrDeadlineExceeded reports a request whose deadline passed before it
// started executing: while it waited for its shard's lock, or before it
// got past a barrier. Such a request never reaches the inner scheduler,
// mutates nothing, and (under a WAL) is never logged, so a deadline
// rejection needs no compensation on either side. It aliases
// fault.ErrDeadlineExceeded.
var ErrDeadlineExceeded = fault.ErrDeadlineExceeded

// ErrNotElastic reports a resize against a shard whose inner scheduler
// does not implement sched.Elastic (or whose wrapper chain bottoms out
// in a non-elastic scheduler).
var ErrNotElastic = sched.ErrNotElastic

// Routing-table markers for names without a committed shard.
const (
	// reservedShard marks a name whose insert is still in flight.
	reservedShard = -1
	// noShard marks an unused slot of the ID-indexed routing table (the
	// ID is not currently issued, or its insert never committed).
	noShard = -2
)

// Factory builds the inner scheduler of one shard, given the number of
// machines the shard owns. For the pool to be resizable the returned
// scheduler must implement sched.Elastic.
type Factory func(machines int) sched.Scheduler

// Config configures New.
//
// Validation matches realloc.NewSharded: a zero value means "use the
// default" (documented per field), and negative values panic. The one
// intentional difference is the Shards default — 1 here, 4 there — and
// the Machines < Shards case, which panics here (the low-level API does
// not resize what you asked for) but grows the pool there.
type Config struct {
	// Shards is the number of shards S (0 means 1; negative panics).
	Shards int
	// Machines is the total machine pool, partitioned near-evenly
	// across shards (0 means Shards; must otherwise be >= Shards).
	Machines int
	// Factory builds each shard's inner scheduler (required).
	Factory Factory
	// Policy routes job names to primary shards (default: consistent
	// hash ring with DefaultReplicas virtual nodes).
	Policy Policy
	// WAL, when non-nil, makes the scheduler durable: every admission
	// path (per-request Apply, bulk ApplyBatch) and every resize
	// appends a record to the log BEFORE the request is acknowledged —
	// the ack is deferred until the record's group commit completes, so
	// an acknowledged request is always recoverable. Ownership of the
	// log transfers to the scheduler: Close closes it. When nil (the
	// default) the admission paths are untouched — no record types, no
	// extra allocations, the PR 4 zero-alloc hot path is preserved.
	WAL *wal.Log
}

// Scheduler is the sharded front-end. It implements sched.Scheduler and
// is safe for concurrent use by any number of goroutines.
type Scheduler struct {
	shards []*shard
	policy Policy

	// names interns every tracked job name; routing is the ID-indexed
	// shard table, holding a shard index or a negative marker
	// (reservedShard, noShard). Invariant, under mu: a
	// name is interned if and only if its routing slot is not noShard —
	// whoever transitions a slot to noShard releases the ID in the same
	// critical section, so captured IDs stay valid exactly as long as
	// their routing entry is owned. Every intern/release deliberately
	// runs UNDER mu: interning outside the lock would race ID
	// release/reuse — a freed ID could be reissued to a different name
	// between a dispatcher's intern and its routing-table write, and two
	// names would then claim one routing slot. mu is a plain Mutex: its
	// holds last a few hundred nanoseconds, which sync.Mutex's own spin
	// waits out, whereas a blocked RWMutex reader parks at once.
	mu       sync.Mutex
	names    *ident.Table
	routing  []int32
	active   int   // committed entries in the routing table
	loads    []int // committed jobs per shard
	inflight []int // in-flight insert reservations per shard
	resizes  []metrics.ResizeCost

	// gate is the admission gate. Apply, ApplyDeadline, ApplyBatch and
	// the read paths (Snapshot, Report, SelfCheck, Machines,
	// ShardMachines) hold its shared side from routing until their ack
	// returns; Resize, ResizeShard, Checkpoint, Close and a logged
	// ApplyBatch hold it exclusively. closed and every shard's
	// base/machines change only under the exclusive side, so a holder
	// of either side reads them plainly. Internal paths (the overflow
	// hop, each, locked, snapshot) run under the gate their entry point
	// holds and never take it again: a recursive RLock deadlocks once a
	// writer waits. Lock order: gate, then a shard's lock, then mu; no
	// goroutine holds two shards' locks at once.
	gate   sync.RWMutex
	closed bool

	// log is the attached write-ahead log (nil = durability off). It is
	// set at construction (Config.WAL) or once by AttachWAL before the
	// scheduler is shared — never mutated concurrently with requests.
	log *wal.Log
}

var _ sched.Scheduler = (*Scheduler)(nil)

// shard is one shard: its inner scheduler, machine range, statistics
// and lock. slot is the lock, a channel of capacity one, so that a
// request with a deadline can select on it against a timer. inner and
// stats are touched only by the slot's holder; base and machines are
// guarded by the gate. lat is the shard's request-latency histogram
// (lock wait plus execution), recorded by the slot's holder and
// snapshotted into the shard report; hdr.Record is atomic and
// allocation-free, so it rides the hot path.
type shard struct {
	base     int // global index of the shard's first machine
	machines int // current machine count
	inner    sched.Scheduler
	slot     chan struct{}
	lat      *hdr.Histogram
	stats    metrics.ShardCost
}

// New builds a sharded scheduler. It panics on invalid configuration,
// matching the constructors of the inner schedulers.
func New(cfg Config) *Scheduler {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Machines == 0 {
		cfg.Machines = cfg.Shards
	}
	if cfg.Shards < 1 || cfg.Machines < cfg.Shards {
		panic(fmt.Sprintf("shard: %d shards over %d machines", cfg.Shards, cfg.Machines))
	}
	perShard := make([]int, cfg.Shards)
	for i := range perShard {
		perShard[i] = cfg.Machines / cfg.Shards
		if i < cfg.Machines%cfg.Shards {
			perShard[i]++ // spread the remainder over the earliest shards
		}
	}
	return newScheduler(cfg, perShard)
}

// newScheduler builds the front-end over an explicit per-shard machine
// partition. It is New's execution half, shared with Restore (which
// resurrects a checkpointed partition instead of splitting evenly).
func newScheduler(cfg Config, perShard []int) *Scheduler {
	if cfg.Factory == nil {
		panic("shard: nil Factory")
	}
	if cfg.Policy == nil {
		cfg.Policy = NewRing(len(perShard), DefaultReplicas)
	}
	s := &Scheduler{
		shards:   make([]*shard, len(perShard)),
		policy:   cfg.Policy,
		names:    ident.New(),
		loads:    make([]int, len(perShard)),
		inflight: make([]int, len(perShard)),
		log:      cfg.WAL,
	}
	base := 0
	for i, m := range perShard {
		sh := &shard{
			base:     base,
			machines: m,
			inner:    cfg.Factory(m),
			slot:     make(chan struct{}, 1),
			lat:      hdr.New(),
		}
		sh.stats.Shard = i
		sh.stats.Machines = m
		base += m
		s.shards[i] = sh
	}
	return s
}

// pollBudget bounds how long lock polls a held shard lock before it
// parks on the channel: about what a park and a wake-up cost, so a
// wait of a few microseconds is waited out without a futex wake-up
// (competitive spinning: Karlin, Li, Manasse and Owicki, SOSP 1991).
const pollBudget = 50 * time.Microsecond

// lock takes the shard's lock, waiting until deadline (monotonicNS; 0 =
// no limit). It reports false, the lock not taken, if the deadline
// passes first. A held lock is polled, yielding the P between tries,
// for up to pollBudget when more than one P can run its holder; then
// the request parks on the channel. Parked waiters take the lock in
// arrival order: an unlock hands the slot straight to the first parked
// sender, so a poller cannot take it ahead of them.
//
//reallocvet:hotpath
func (sh *shard) lock(deadline int64) bool {
	select {
	case sh.slot <- struct{}{}: // free: no timer needed
		return true
	default:
	}
	if runtime.GOMAXPROCS(0) > 1 {
		now := monotonicNS()
		for end := now + int64(pollBudget); now < end; now = monotonicNS() {
			if deadline != 0 && now >= deadline {
				return false
			}
			runtime.Gosched()
			select {
			case sh.slot <- struct{}{}:
				return true
			default:
			}
		}
	}
	if deadline == 0 {
		sh.slot <- struct{}{}
		return true
	}
	remain := deadline - monotonicNS()
	if remain <= 0 {
		return false
	}
	timer := time.NewTimer(time.Duration(remain))
	defer timer.Stop()
	select {
	case sh.slot <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

func (sh *shard) unlock() { <-sh.slot }

// begin takes the shard's lock for a request that arrived at start. It
// fails with ErrDeadlineExceeded, the lock not held and nothing
// executed, if the deadline passes before the lock is taken or by the
// time it is.
//
//reallocvet:hotpath
func (sh *shard) begin(start, deadline int64) error {
	if !sh.lock(deadline) {
		return ErrDeadlineExceeded
	}
	sh.stats.Batches++
	if deadline != 0 && monotonicNS() > deadline {
		sh.stats.Requests++
		sh.stats.Failures++
		sh.lat.Record(monotonicNS() - start)
		sh.unlock()
		return ErrDeadlineExceeded
	}
	return nil
}

// serve executes r on the shard's inner scheduler and folds the
// outcome into the shard's statistics. The caller holds the lock and
// began waiting for it at start. retryable marks a primary insert the
// front-end retries on a fallback shard if this one rejects it as
// infeasible; reroute reports that rejection, which counts as Rerouted,
// not as a Failure. overflow marks that retry.
//
//reallocvet:hotpath
func (sh *shard) serve(r jobs.Request, start int64, retryable, overflow bool) (c metrics.Cost, reroute bool, err error) {
	c, err = sched.Apply(sh.inner, r)
	sh.stats.Requests++
	sh.stats.Cost.Add(c)
	switch {
	case err != nil && retryable && errors.Is(err, sched.ErrInfeasible):
		sh.stats.Rerouted++
		reroute = true
	case err != nil:
		sh.stats.Failures++
	case overflow:
		sh.stats.Overflow++
	}
	sh.lat.Record(monotonicNS() - start)
	return c, reroute, err
}

// routeOf returns the routing value of id and whether it is tracked.
// Requires mu held.
func (s *Scheduler) routeOf(id ident.ID) (int, bool) {
	if int(id) < len(s.routing) && s.routing[id] != noShard {
		return int(s.routing[id]), true
	}
	return 0, false
}

// setRoute writes id's routing value, growing the table on demand.
// Requires mu held.
func (s *Scheduler) setRoute(id ident.ID, v int) {
	for int(id) >= len(s.routing) {
		s.routing = append(s.routing, noShard)
	}
	s.routing[id] = int32(v)
}

// dropRoute removes id from the routing table and releases the ID,
// reporting whether it was tracked. Requires mu held; this is
// the ONLY place a tracked ID is released, which is what keeps the
// interned⇔tracked invariant.
func (s *Scheduler) dropRoute(id ident.ID) bool {
	if _, ok := s.routeOf(id); !ok {
		return false
	}
	s.routing[id] = noShard
	s.names.Release(id)
	return true
}

// trackedID resolves a name to its ID if the name is currently tracked.
// Requires mu held.
func (s *Scheduler) trackedID(name string) (ident.ID, int, bool) {
	id, ok := s.names.Get(name)
	if !ok {
		return ident.None, 0, false
	}
	v, ok := s.routeOf(id)
	return id, v, ok
}

// epoch anchors the monotonic clock used for request-latency stamps.
var epoch = time.Now()

// monotonicNS returns nanoseconds since the package epoch — a single
// monotonic clock read, cheaper than time.Now (which also reads the
// wall clock) and immune to wall-time jumps.
func monotonicNS() int64 { return int64(time.Since(epoch)) }

// Shards returns the shard count (fixed for the scheduler's lifetime;
// only the machine pool is elastic).
func (s *Scheduler) Shards() int { return len(s.shards) }

// Machines returns the total machine pool size.
func (s *Scheduler) Machines() int {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.machinesLocked()
}

// machinesLocked is Machines under a gate the caller holds.
func (s *Scheduler) machinesLocked() int {
	last := s.shards[len(s.shards)-1]
	return last.base + last.machines
}

// ShardMachines returns shard i's current machine count.
func (s *Scheduler) ShardMachines(i int) int {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.shards[i].machines
}

// Active returns the number of committed active jobs.
func (s *Scheduler) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Insert adds a job synchronously. Implements sched.Scheduler.
func (s *Scheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	return s.Apply(jobs.Request{Kind: jobs.Insert, Name: j.Name, Window: j.Window})
}

// Delete removes a job synchronously. Implements sched.Scheduler.
func (s *Scheduler) Delete(name string) (metrics.Cost, error) {
	return s.Apply(jobs.DeleteReq(name))
}

// Apply serves one request synchronously, on the caller's goroutine: it
// returns once the request has executed on its shard (including any
// overflow hop) and, under a WAL, once its record is durable.
func (s *Scheduler) Apply(r jobs.Request) (metrics.Cost, error) {
	return s.ApplyDeadline(r, 0)
}

// ApplyDeadline is Apply with a request deadline: if timeout elapses
// before the request starts executing — while it waits for its shard's
// lock — the request fails with ErrDeadlineExceeded, having mutated
// nothing. Execution itself is never interrupted: once the request
// starts it runs to completion, overflow hop included, so a nil error
// always means the job state changed. timeout <= 0 means no deadline,
// and so does a timeout that runs past the clock's range; the clock
// starts before the request waits out a barrier (a resize, a
// checkpoint), so a request held up by one still expires un-executed.
func (s *Scheduler) ApplyDeadline(r jobs.Request, timeout time.Duration) (metrics.Cost, error) {
	deadline := deadlineFrom(timeout)
	s.gate.RLock()
	defer s.gate.RUnlock()
	if err := r.Validate(); err != nil {
		return metrics.Cost{}, err
	}
	if s.closed {
		// Every post-Close request — insert or delete, known name or
		// not — reports ErrClosed instead of whatever routing would
		// conclude first.
		return metrics.Cost{}, ErrClosed
	}
	sh, c, err := s.exec(r, deadline)
	if sh == nil {
		return c, err
	}
	return s.ack(sh, r, c, err)
}

// deadlineFrom converts a relative timeout to an absolute monotonicNS
// deadline (0 = none). A timeout past the clock's range saturates to
// none rather than wrapping into the past.
func deadlineFrom(timeout time.Duration) int64 {
	if timeout <= 0 {
		return 0
	}
	now := monotonicNS()
	if int64(timeout) > math.MaxInt64-now {
		return 0
	}
	return now + int64(timeout)
}

// exec executes a validated request under a gate the caller holds. It
// returns the shard the request ran on, with that shard's lock still
// held, or nil if the request was rejected before it executed (a
// duplicate or unknown name, an expired deadline), having mutated
// nothing.
func (s *Scheduler) exec(r jobs.Request, deadline int64) (*shard, metrics.Cost, error) {
	if r.Kind == jobs.Insert {
		return s.insert(r, deadline)
	}
	return s.delete(r, deadline)
}

// insert reserves r's name, executes r on its primary shard and, if the
// primary rejects it as locally infeasible, hops to the least-loaded
// other shard. It returns like exec.
func (s *Scheduler) insert(r jobs.Request, deadline int64) (*shard, metrics.Cost, error) {
	i := s.policy.Route(r.Name, len(s.shards))
	s.mu.Lock()
	id := s.names.Intern(r.Name)
	if _, dup := s.routeOf(id); dup {
		s.mu.Unlock()
		return nil, metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrDuplicateJob, r.Name)
	}
	s.setRoute(id, reservedShard)
	s.inflight[i]++
	s.mu.Unlock()

	start := monotonicNS()
	sh := s.shards[i]
	if err := sh.begin(start, deadline); err != nil {
		s.commitInsert(id, i, err)
		return nil, metrics.Cost{}, err
	}
	c, reroute, err := sh.serve(r, start, len(s.shards) > 1, false)
	if reroute {
		sh.unlock()
		i, sh, c, err = s.hop(r, i)
	}
	s.commitInsert(id, i, err)
	return sh, c, err
}

// hop retries an insert that shard `from` rejected as locally
// infeasible on the least-loaded other shard, moving its in-flight
// reservation along in the same routing-table lock hold as the pick, so
// concurrent hops see each other. The request has started executing, so
// it waits for the fallback's lock without a deadline. It returns the
// fallback's index and the shard, whose lock it leaves held. The caller
// holds the gate and no shard's lock.
func (s *Scheduler) hop(r jobs.Request, from int) (int, *shard, metrics.Cost, error) {
	s.mu.Lock()
	fb := s.loadOrder(from)[0]
	s.inflight[from]--
	s.inflight[fb]++
	s.mu.Unlock()
	sh, start := s.shards[fb], monotonicNS()
	sh.lock(0)
	sh.stats.Batches++
	c, _, err := sh.serve(r, start, false, true)
	return fb, sh, c, err
}

// delete executes r on the shard its job is routed to. It returns like
// exec.
func (s *Scheduler) delete(r jobs.Request, deadline int64) (*shard, metrics.Cost, error) {
	s.mu.Lock()
	_, i, ok := s.trackedID(r.Name)
	s.mu.Unlock()
	if !ok || i == reservedShard {
		return nil, metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrUnknownJob, r.Name)
	}
	start := monotonicNS()
	sh := s.shards[i]
	if err := sh.begin(start, deadline); err != nil {
		return nil, metrics.Cost{}, err
	}
	c, _, err := sh.serve(r, start, false, false)
	if err == nil {
		s.mu.Lock()
		// Re-resolve the name before dropping rather than trusting an
		// ID captured at routing: the name's CURRENT entry on this
		// shard is the one the inner delete just removed.
		if id, v, ok := s.trackedID(r.Name); ok && v == i && s.dropRoute(id) {
			s.loads[i]--
			s.active--
		}
		s.mu.Unlock()
	}
	return sh, c, err
}

// ack finishes a request that executed on sh, whose lock the caller
// holds. Under a WAL it enqueues the request's record before releasing
// the lock, so one shard's records reach the log in execution order,
// and then waits for the record's ticket (committing the group itself
// if no write is in progress), so a caller that sees its ack can
// always recover the request. The request is logged
// whatever its outcome: a failed insert can still mutate inner state
// (trim's recovery rebuild), and replaying the failure reproduces that
// state exactly. Requests rejected before they execute (validation, a
// duplicate or unknown name at routing, an expired deadline) mutate
// nothing and are not logged. Requests on different shards log in no
// set order, which is safe under the request contract: a request for a
// name is issued after the previous one's ack, and an ack waits for
// the append.
func (s *Scheduler) ack(sh *shard, r jobs.Request, c metrics.Cost, err error) (metrics.Cost, error) {
	if s.log == nil {
		sh.unlock()
		return c, err
	}
	t, werr := s.log.Enqueue(wal.RequestRecord(r))
	sh.unlock()
	if werr == nil {
		werr = s.log.Wait(t)
	}
	if werr != nil && err == nil {
		// The request is applied but not durable: surface the broken
		// promise instead of acking cleanly.
		err = fmt.Errorf("shard: request applied but WAL append failed: %w", werr)
	}
	return c, err
}

// commitInsert settles an in-flight insert reservation on shard
// shardIdx: into the routing table on success, dropped on failure.
func (s *Scheduler) commitInsert(id ident.ID, shardIdx int, err error) {
	s.mu.Lock()
	s.inflight[shardIdx]--
	if err != nil {
		s.dropRoute(id)
	} else {
		s.setRoute(id, shardIdx)
		s.loads[shardIdx]++
		s.active++
	}
	s.mu.Unlock()
}

// loadOrder returns every shard except `exclude`, sorted by ascending
// jobs per machine, ties to the lowest index. The load counts both
// committed jobs and in-flight insert reservations, so a burst of
// concurrent overflows spreads out instead of stampeding onto one
// fallback. Requires mu held.
func (s *Scheduler) loadOrder(exclude int) []int {
	load := make([]float64, len(s.shards))
	for i, sh := range s.shards {
		load[i] = float64(s.loads[i]+s.inflight[i]) / float64(sh.machines)
	}
	out := make([]int, 0, len(s.shards)-1)
	for i := range s.shards {
		if i != exclude {
			out = append(out, i)
		}
	}
	// Insertion sort: shard counts are small.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && load[out[k]] < load[out[k-1]]; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out
}

// each runs fn on every shard in turn, holding that shard's lock; fn
// must not call back into the Scheduler's request paths. The caller
// holds the gate.
func (s *Scheduler) each(fn func(i int, sh *shard)) {
	for i := range s.shards {
		s.locked(i, func(sh *shard) { fn(i, sh) })
	}
}

// locked runs fn holding shard i's lock. The caller holds the gate.
func (s *Scheduler) locked(i int, fn func(sh *shard)) {
	sh := s.shards[i]
	sh.lock(0)
	defer sh.unlock()
	fn(sh)
}

// Snapshot is a consistent view of the scheduler's schedule: the active
// jobs, their placements (machine indices in the global range), and the
// machine pool size, all captured in ONE pass over the shards. Each
// shard contributes its jobs and its placements under one hold of its
// lock, so a job
// present in Jobs always has its placement in Assignment and vice versa
// — unlike calling Jobs() and Assignment() back to back, which lets
// concurrent requests slip between the two passes.
//
// Consistency caveat: the cut is per-shard-atomic, not global — shards
// are sampled at slightly different times, so two requests racing the
// snapshot on different shards may land on either side of it. That
// cannot produce a job/placement mismatch (a job lives on exactly one
// shard), but ordering across shards is not preserved. A snapshot holds
// the gate's shared side, so no resize runs during it and the machine
// ranges are stable within one snapshot.
type Snapshot struct {
	Jobs       []jobs.Job
	Assignment jobs.Assignment
	Machines   int
	// ShardMachines is each shard's machine count, in shard order (the
	// machine-range partition a checkpoint must preserve).
	ShardMachines []int
}

// Snapshot captures jobs + assignment + pool size in one pass.
// After Close it holds no jobs.
func (s *Scheduler) Snapshot() Snapshot {
	s.gate.RLock()
	defer s.gate.RUnlock()
	return s.snapshot()
}

// snapshot is Snapshot under a gate the caller holds.
func (s *Scheduler) snapshot() Snapshot {
	type part struct {
		js  []jobs.Job
		asn jobs.Assignment
	}
	parts := make([]part, len(s.shards))
	if !s.closed {
		s.each(func(i int, sh *shard) {
			parts[i] = part{js: sh.inner.Jobs(), asn: sh.inner.Assignment()}
		})
	}
	snap := Snapshot{
		Machines:      s.machinesLocked(),
		Assignment:    make(jobs.Assignment),
		ShardMachines: make([]int, len(s.shards)),
	}
	for i, p := range parts {
		base := s.shards[i].base
		snap.ShardMachines[i] = s.shards[i].machines
		snap.Jobs = append(snap.Jobs, p.js...)
		for name, pl := range p.asn { //reallocvet:orderinsensitive (merge into the snapshot map; job names are unique across shards)
			snap.Assignment[name] = jobs.Placement{Machine: base + pl.Machine, Slot: pl.Slot}
		}
	}
	return snap
}

// Assignment returns a snapshot of the global schedule, with per-shard
// machine indices remapped into the global machine range. Prefer
// Snapshot when the job set must be consistent with the assignment.
func (s *Scheduler) Assignment() jobs.Assignment {
	return s.Snapshot().Assignment
}

// Jobs returns a snapshot of the active job set. Prefer Snapshot when
// the job set must be consistent with the assignment.
func (s *Scheduler) Jobs() []jobs.Job {
	return s.Snapshot().Jobs
}

// Report returns the shard-aware cost report: per-shard totals of
// requests, failures, overflow hops, lock acquisitions, resizes, costs,
// and the request-latency histogram (lock wait plus execution, per
// request). After
// Close only the resize history is left.
func (s *Scheduler) Report() metrics.ShardReport {
	s.gate.RLock()
	defer s.gate.RUnlock()
	rep := metrics.ShardReport{Shards: make([]metrics.ShardCost, len(s.shards))}
	if !s.closed {
		s.each(func(i int, sh *shard) {
			snap := sh.stats
			snap.Active = sh.inner.Active()
			snap.Latency = sh.lat.Snapshot()
			rep.Shards[i] = snap
		})
	}
	s.mu.Lock()
	rep.Resizes = append([]metrics.ResizeCost(nil), s.resizes...)
	s.mu.Unlock()
	return rep
}

// Resize grows or shrinks the total machine pool to `machines`,
// re-partitioning it near-evenly across the shards (remainder on the
// earliest shards, like New). Growing shards never moves a job;
// shrinking shards re-places only the jobs of the drained machines.
// Grows apply before shrinks so evicted jobs can land on the freshly
// grown shards. The aggregate resize cost is returned; per-shard
// entries land in the report's resize history.
//
// A resize is a barrier: it holds the gate exclusively, so it starts
// with every earlier request executed and logged, and every later
// request waits for it. Its record therefore sits in the log exactly
// where it ran.
func (s *Scheduler) Resize(machines int) (metrics.ResizeCost, error) {
	total := metrics.ResizeCost{Shard: -1}
	if machines < len(s.shards) {
		return total, fmt.Errorf("shard: cannot resize %d shards to %d machines (every shard needs one)",
			len(s.shards), machines)
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.closed {
		return total, ErrClosed
	}
	deltas := make([]int, len(s.shards))
	for i, sh := range s.shards {
		m := machines / len(s.shards)
		if i < machines%len(s.shards) {
			m++
		}
		deltas[i] = m - sh.machines
	}

	// WRITE-AHEAD: the record is durable before any shard changes size.
	// If it cannot be made durable the resize does not run at all.
	if err := s.logResize(wal.ResizeRecord(-1, 0, machines)); err != nil {
		return total, err
	}
	var firstErr error
	for _, shrink := range []bool{false, true} {
		for i, d := range deltas {
			if d == 0 || (d < 0) != shrink {
				continue
			}
			rc, err := s.resizeShardLocked(i, d)
			total.Add(rc)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return total, firstErr
}

// logResize appends a resize record write-ahead and waits for its group
// commit (a no-op without an attached WAL). Requires the gate held
// exclusively, so the record's log position matches its execution.
func (s *Scheduler) logResize(rec wal.Record) error {
	if s.log == nil {
		return nil
	}
	if err := s.log.Append(rec); err != nil {
		return fmt.Errorf("shard: resize not applied, WAL append failed: %w", err)
	}
	return nil
}

// ResizeShard grows (delta > 0) or shrinks (delta < 0) shard i's
// machine range by delta machines. Growing never moves a job. Shrinking
// drains the shard's last machines: their jobs are re-placed inside the
// shard where possible, and the remainder is evicted and re-inserted on
// the least-loaded other shards (one migration per moved job). The
// returned ResizeCost records the migration bill; it is also appended
// to the report's resize history. Like Resize it is a barrier.
func (s *Scheduler) ResizeShard(i, delta int) (metrics.ResizeCost, error) {
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.closed {
		return metrics.ResizeCost{Shard: i, Delta: delta}, ErrClosed
	}
	// Write-ahead, like Resize: durable before any machine moves.
	if err := s.logResize(wal.ResizeRecord(i, delta, 0)); err != nil {
		return metrics.ResizeCost{Shard: i, Delta: delta}, err
	}
	return s.resizeShardLocked(i, delta)
}

func (s *Scheduler) resizeShardLocked(i, delta int) (metrics.ResizeCost, error) {
	rc := metrics.ResizeCost{Shard: i, Delta: delta}
	if i < 0 || i >= len(s.shards) {
		return rc, fmt.Errorf("shard: resize of shard %d of %d", i, len(s.shards))
	}
	if delta == 0 {
		return rc, nil
	}
	cur := s.shards[i].machines
	if cur+delta < 1 {
		return rc, fmt.Errorf("shard: resize leaves shard %d with %d machines", i, cur+delta)
	}

	if delta > 0 {
		err := s.resizeInner(i, delta, func(el sched.Elastic, st *metrics.ShardCost) error {
			if err := el.AddMachines(delta); err != nil {
				return err
			}
			st.Machines += delta
			return nil
		})
		if err != nil {
			return rc, err
		}
		s.recordResize(rc)
		return rc, nil
	}

	// Shrink: drain the shard, then re-home the evictions.
	drop := -delta
	var evicted []jobs.Job
	err := s.resizeInner(i, delta, func(el sched.Elastic, st *metrics.ShardCost) error {
		cost, ev, rerr := el.RemoveMachines(drop)
		if rerr != nil {
			return rerr
		}
		st.Machines -= drop
		st.Cost.Add(cost)
		st.ResizeEvicted += len(ev)
		rc.Cost.Add(cost)
		evicted = ev
		s.mu.Lock()
		s.loads[i] -= len(ev)
		s.active -= len(ev)
		s.mu.Unlock()
		return nil
	})
	if err != nil {
		return rc, err
	}

	rc.Evicted = len(evicted)
	var dropped []string
	for _, j := range evicted {
		c, err := s.placeEvicted(j, i)
		if err != nil {
			rc.Dropped++
			dropped = append(dropped, j.Name)
			continue
		}
		rc.Reinserted++
		rc.Cost.Add(c)
		rc.Cost.Migrations++ // the job crossed shards
	}
	s.recordResize(rc)
	if rc.Dropped > 0 {
		// The scheduler no longer holds these jobs; name them so the
		// caller can re-create them (or scale back up first). On
		// γ-underallocated workloads this cannot happen — the evicted
		// jobs always fit the remaining pool.
		return rc, fmt.Errorf("shard: shrink of shard %d dropped %d job(s) no shard could absorb: %v",
			i, rc.Dropped, dropped)
	}
	return rc, nil
}

// placeEvicted re-inserts a resize-evicted job on another shard,
// least-loaded first, with the evicting shard itself as the last
// resort. Each attempt holds the target shard's lock and counts itself
// as resize work, not as a client request. The job keeps its routing
// entry on the evictor until it lands; on total failure it leaves the
// routing table and the caller reports it dropped by name.
func (s *Scheduler) placeEvicted(j jobs.Job, evictor int) (metrics.Cost, error) {
	r := jobs.Request{Kind: jobs.Insert, Name: j.Name, Window: j.Window}
	lastErr := fmt.Errorf("%w: no fallback shard", sched.ErrInfeasible)
	s.mu.Lock()
	order := append(s.loadOrder(evictor), evictor)
	s.mu.Unlock()
	for _, fb := range order {
		var c metrics.Cost
		var err error
		s.locked(fb, func(sh *shard) {
			if c, err = sched.Apply(sh.inner, r); err == nil {
				sh.stats.ResizeAbsorbed++
				sh.stats.Cost.Add(c)
			}
		})
		if err == nil {
			s.mu.Lock()
			if id, _, ok := s.trackedID(j.Name); ok {
				s.setRoute(id, fb)
				s.loads[fb]++
				s.active++
			}
			s.mu.Unlock()
			return c, nil
		}
		lastErr = err
		if !errors.Is(err, sched.ErrInfeasible) {
			break // structural failure: stop probing
		}
	}
	s.mu.Lock()
	if id, _, ok := s.trackedID(j.Name); ok {
		s.dropRoute(id)
	}
	s.mu.Unlock()
	return metrics.Cost{}, lastErr
}

// resizeInner runs the elastic operation on shard i under its lock
// and, on success, applies the machine-count delta to the shard and shifts the
// bases of the shards after it, keeping the global range contiguous.
// The caller holds the gate exclusively, so no reader sees the inner
// pool and the global numbering disagree.
//
// Global machine indices are a dense *view* over the per-shard pools:
// renumbering does not move any job between physical machines, it only
// relabels where later shards' machines appear in snapshots.
func (s *Scheduler) resizeInner(i, delta int, op func(el sched.Elastic, st *metrics.ShardCost) error) error {
	var err error
	s.locked(i, func(sh *shard) {
		el, ok := sh.inner.(sched.Elastic)
		if !ok {
			err = fmt.Errorf("%w (shard %d: %T)", ErrNotElastic, i, sh.inner)
			return
		}
		err = op(el, &sh.stats)
	})
	if err != nil {
		return err
	}
	s.shards[i].machines += delta
	for k := i + 1; k < len(s.shards); k++ {
		s.shards[k].base += delta
	}
	return nil
}

func (s *Scheduler) recordResize(rc metrics.ResizeCost) {
	s.mu.Lock()
	s.resizes = append(s.resizes, rc)
	s.mu.Unlock()
}

// SelfCheck validates every shard's internal invariants plus the
// front-end's routing table. Implements sched.Scheduler.
func (s *Scheduler) SelfCheck() error {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.closed {
		return ErrClosed
	}
	errs := make([]error, len(s.shards))
	routed := make([]map[string]bool, len(s.shards))
	s.each(func(i int, sh *shard) {
		if err := sh.inner.SelfCheck(); err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		names := make(map[string]bool)
		for _, j := range sh.inner.Jobs() {
			names[j.Name] = true
		}
		routed[i] = names
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	committed := 0
	perShard := make([]int, len(s.shards))
	var fail error
	s.names.Range(func(id ident.ID, name string) bool {
		idx, ok := s.routeOf(id)
		if !ok {
			fail = fmt.Errorf("shard: name %q interned without a routing entry", name)
			return false
		}
		if idx < 0 {
			return true // reserved: settled by an in-flight insert
		}
		committed++
		perShard[idx]++
		if !routed[idx][name] {
			fail = fmt.Errorf("shard: job %q routed to shard %d but not present there", name, idx)
			return false
		}
		return true
	})
	if fail != nil {
		return fail
	}
	total := 0
	for _, names := range routed {
		total += len(names)
	}
	if total != committed {
		return fmt.Errorf("shard: %d jobs on shards, %d committed in routing table", total, committed)
	}
	if committed != s.active {
		return fmt.Errorf("shard: active count %d, routing table holds %d", s.active, committed)
	}
	for i, n := range perShard {
		if s.loads[i] != n {
			return fmt.Errorf("shard: shard %d load counter %d, routing table holds %d", i, s.loads[i], n)
		}
	}
	return nil
}

// Replay applies one logged record through the admission path that
// wrote it: Apply for a request, ApplyBatch for a batch, Resize or
// ResizeShard for a resize. It is the one replay path of crash recovery
// and of a warm follower. failed counts the requests (or the resize)
// the scheduler rejected; rejections do not stop a replay, because a
// request that failed in the original run mutated state the same way
// its failed replay does. Resizes, checkpoints and logged batches ran
// as barriers, so replaying the log in order reproduces the live run.
// Replay refuses, with an error and without applying, on a scheduler
// that has a WAL attached: replaying a record must not re-append it.
func (s *Scheduler) Replay(rec wal.Record) (failed int, err error) {
	if s.log != nil {
		return 0, errors.New("shard: Replay with a WAL attached would re-append the record")
	}
	var rejected error
	switch rec.Kind {
	case wal.KindRequest:
		_, rejected = s.Apply(rec.Req)
	case wal.KindBatch:
		_, rejected = s.ApplyBatch(rec.Batch)
	case wal.KindResize:
		if rec.Resize.Shard < 0 {
			_, rejected = s.Resize(rec.Resize.Machines)
		} else {
			_, rejected = s.ResizeShard(rec.Resize.Shard, rec.Resize.Delta)
		}
	default:
		return 0, fmt.Errorf("shard: Replay of unknown record kind %d", rec.Kind)
	}
	var be *sched.BatchError
	switch {
	case rejected == nil:
		return 0, nil
	case errors.As(rejected, &be):
		return be.Failed, nil
	}
	return 1, nil
}

// AttachWAL binds a write-ahead log to the scheduler so every later
// admission appends before acking (see Config.WAL, which is the same
// wiring at construction time). It exists for the recovery path: Replay
// runs with logging off, and the log is attached once the tail is
// applied. Attach before the scheduler is shared with other goroutines;
// ownership of the log transfers (Close closes it).
func (s *Scheduler) AttachWAL(l *wal.Log) {
	s.log = l
}

// Checkpoint captures a point-in-time image of the scheduler (jobs,
// placements, machine-range partition) and writes it into the WAL as a
// checkpoint record at the head of a fresh segment, bounding recovery
// to "restore the image, replay the records after it". It is a barrier
// like Resize: with the gate held exclusively no request is in flight,
// so the image covers every record before it and none after.
// Checkpoint requires an attached WAL.
func (s *Scheduler) Checkpoint() error {
	if s.log == nil {
		return errors.New("shard: Checkpoint requires a WAL (realloc.WithWAL)")
	}
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.closed {
		return ErrClosed
	}
	snap := s.snapshot()
	if err := s.log.Checkpoint(&wal.Checkpoint{
		ShardMachines: snap.ShardMachines,
		Jobs:          snap.Jobs,
		Assignment:    snap.Assignment,
	}); err != nil {
		return fmt.Errorf("shard: checkpoint: %w", err)
	}
	return nil
}

// Close waits for every request in flight to be acked and closes the
// attached WAL (if any). Requests after Close fail with ErrClosed. Close
// is idempotent.
func (s *Scheduler) Close() {
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.log != nil {
		_ = s.log.Close()
	}
}
