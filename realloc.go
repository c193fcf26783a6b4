// Package realloc is a Go implementation of the reallocating schedulers
// from "Reallocation Problems in Scheduling" (Bender, Farach-Colton,
// Fekete, Fineman, Gilbert; SPAA 2013, arXiv:1305.6555).
//
// A reallocating scheduler maintains a feasible schedule for unit-length
// jobs with arrival/deadline windows on m identical machines while jobs
// are inserted and deleted online. Changing a job's slot costs one
// reallocation; changing its machine costs one migration. The paper's
// main result (Theorem 1) is a scheduler that, on γ-underallocated
// request sequences, serves every request with O(min{log* n, log* Δ})
// reallocations and at most one migration.
//
// New builds the full Theorem 1 stack:
//
//	s := realloc.New(realloc.WithMachines(4))
//	cost, err := s.Insert(realloc.Job{Name: "patient-17", Window: realloc.Win(9, 17)})
//	...
//	cost, err = s.Delete("patient-17")
//
// The stack composes, outermost first: window alignment (Section 5),
// round-robin machine delegation (Section 3), window trimming with n*
// doubling (Section 4), and the reservation-based pecking-order
// scheduler (Section 4, the paper's core contribution). Each layer is
// independently available via options, and the classical baselines the
// paper compares against (naive pecking order, EDF/LLF recompute) are
// exposed as NewNaive and NewEDF.
//
// Schedulers built by New are single-threaded. For concurrent callers,
// NewSharded builds a thread-safe front-end that partitions the machine
// pool into shards — each one an independent Theorem 1 stack behind a
// worker goroutine — and routes requests by consistent hashing of the
// job name, overflowing infeasible inserts to the least-loaded shard:
//
//	s := realloc.NewSharded(realloc.WithMachines(8), realloc.WithShards(4))
//	defer s.Close()
//	cost, err := s.Insert(realloc.Job{Name: "batch-1", Window: realloc.Win(0, 64)})
//	_ = s.Submit(realloc.InsertReq("batch-2", 0, 64)) // async path
//	err = s.Drain()
//	report := s.Report() // per-shard cost breakdown
//
// Sharded schedulers can be made durable: WithWAL(dir) appends every
// admission to a write-ahead log before acknowledging it, Checkpoint
// writes an atomic point-in-time image that bounds recovery to "load
// snapshot + replay tail", and OpenRecovered rebuilds a crashed
// scheduler from the directory. See the README's "Durability &
// recovery" section for the guarantees.
package realloc

import (
	"fmt"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/edf"
	"repro/internal/fault"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/naive"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/trim"
	"repro/internal/wal"
)

// Re-exported model types. See the internal/jobs package for details.
type (
	// Window is a half-open interval [Start, End) of integer timeslots.
	Window = jobs.Window
	// Job is a unit-length job with a name and a window.
	Job = jobs.Job
	// Request is one insert or delete of an on-line execution.
	Request = jobs.Request
	// Placement locates a scheduled job: machine index and timeslot.
	Placement = jobs.Placement
	// Assignment is a snapshot of a schedule: job name -> placement.
	Assignment = jobs.Assignment
	// Cost is the price of one request: reallocations and migrations.
	Cost = metrics.Cost
	// Scheduler is the common interface of every scheduler in this
	// module.
	Scheduler = sched.Scheduler
	// Sharded is the concurrent sharded front-end built by NewSharded:
	// a Scheduler that is safe for concurrent use, plus the async
	// Submit/Drain path, the per-shard Report, and Close.
	Sharded = shard.Scheduler
	// ShardPolicy routes job names to primary shards; see WithShardPolicy.
	ShardPolicy = shard.Policy
	// ShardReport is the per-shard cost breakdown of a Sharded scheduler.
	ShardReport = metrics.ShardReport
	// ResizeCost is the migration bill of one elastic pool resize; see
	// Sharded.Resize and Sharded.ResizeShard.
	ResizeCost = metrics.ResizeCost
	// ResizeReq is the asynchronous resize request accepted by
	// Sharded.SubmitResize; failures surface in Drain.
	ResizeReq = shard.ResizeReq
	// Snapshot is an atomically captured jobs+assignment view of a
	// Sharded scheduler; see Sharded.Snapshot and Verify.
	Snapshot = shard.Snapshot
)

// Re-exported sentinel errors: the module's unified error vocabulary
// (internal/fault). Every layer that can raise one of these failure
// classes — the embedded schedulers, the WAL, the wire codec, the
// network client — aliases the same sentinel, so errors.Is against
// the realloc names works identically for embedded and remote callers:
// a CodeOverload ack decoded by repro/client and an admission rejection
// from Sharded.Submit both satisfy errors.Is(err, realloc.ErrOverload).
var (
	// ErrDuplicateJob reports an insert whose name is already active.
	ErrDuplicateJob = fault.ErrDuplicateJob
	// ErrUnknownJob reports a delete of an inactive name.
	ErrUnknownJob = fault.ErrUnknownJob
	// ErrInfeasible reports that no feasible placement exists — the
	// instance is not sufficiently underallocated.
	ErrInfeasible = fault.ErrInfeasible
	// ErrMisaligned reports an unaligned window given to an aligned-only
	// scheduler (disable alignment wrapping to see it).
	ErrMisaligned = fault.ErrMisaligned
	// ErrClosed reports an operation against a closed scheduler, WAL,
	// server, or client connection.
	ErrClosed = fault.ErrClosed
	// ErrOverload reports admission-control rejection: the bounded
	// inflight budget was exhausted and the request was refused without
	// executing. Back off and retry.
	ErrOverload = fault.ErrOverload
	// ErrDeadlineExceeded reports a request whose deadline passed before
	// execution; it mutated nothing and was never logged.
	ErrDeadlineExceeded = fault.ErrDeadlineExceeded
	// ErrNotElastic reports a resize against a non-elastic scheduler
	// stack.
	ErrNotElastic = fault.ErrNotElastic
	// ErrBadRequest reports a request the server could not parse or
	// validate.
	ErrBadRequest = fault.ErrBadRequest
	// ErrFenced reports an operation refused because a newer primary
	// fencing epoch exists (see internal/wire's epoch rule); clients
	// should redial the promoted follower.
	ErrFenced = fault.ErrFenced
)

// Win builds the window [start, end).
func Win(start, end int64) Window { return Window{Start: start, End: end} }

// InsertReq builds an insert request.
func InsertReq(name string, start, end int64) Request { return jobs.InsertReq(name, start, end) }

// DeleteReq builds a delete request.
func DeleteReq(name string) Request { return jobs.DeleteReq(name) }

// Options configure New and NewSharded.
type Options struct {
	machines   int
	gamma      int64
	align      bool
	trim       bool
	deamortize bool
	shards     int
	policy     shard.Policy
	buffer     int
	batchSize  int
	walDir     string
	walFsync   bool
	walObserve func(seg uint64, off int64, group []byte)
}

// Option customizes the scheduler stack built by New.
type Option func(*Options)

// WithMachines sets the number of machines (default 1).
func WithMachines(m int) Option { return func(o *Options) { o.machines = m } }

// WithGamma sets the slack factor used by window trimming (default 8,
// the constant Lemma 8 needs for the single-machine scheduler).
func WithGamma(gamma int64) Option { return func(o *Options) { o.gamma = gamma } }

// WithoutAlignment drops the Section 5 wrapper; every window must then
// be aligned (span a power of two, start a multiple of the span).
func WithoutAlignment() Option { return func(o *Options) { o.align = false } }

// WithoutTrimming drops the Section 4 n*-trimming wrapper; windows are
// then used at full span (reallocation cost follows log* Δ, and spans
// above 2^28 are rejected to bound interval bookkeeping).
func WithoutTrimming() Option { return func(o *Options) { o.trim = false } }

// WithShards sets the shard count of NewSharded (0, the zero value,
// means the default of 4; negative counts panic in NewSharded). New
// ignores it. The same rules hold one layer down in shard.Config,
// whose default is 1.
func WithShards(n int) Option { return func(o *Options) { o.shards = n } }

// WithShardPolicy overrides how NewSharded routes job names to primary
// shards (default: consistent hash ring). New ignores it.
func WithShardPolicy(p ShardPolicy) Option { return func(o *Options) { o.policy = p } }

// WithShardBuffer sets the per-shard request channel capacity of
// NewSharded (default 256). New ignores it.
func WithShardBuffer(n int) Option { return func(o *Options) { o.buffer = n } }

// WithBatchSize sets the scheduler's preferred bulk-admission chunk
// size (default 1, i.e. per-request). When it exceeds 1, Run feeds the
// request sequence to the scheduler in chunks of that size through
// ApplyBatch instead of one request at a time — see ApplyBatch for the
// bulk semantics. Negative sizes panic.
func WithBatchSize(n int) Option { return func(o *Options) { o.batchSize = n } }

// WithWAL makes NewSharded durable: dir receives a write-ahead log (a
// CRC-framed binary log of every admitted request) and, on demand, the
// point-in-time checkpoints written by Sharded.Checkpoint. Every
// admission path — sync Apply, async Submit, and bulk ApplyBatch — and
// every resize appends its record BEFORE acknowledging, with group
// commit coalescing concurrent appends into one write. A crashed
// process recovers with OpenRecovered, which bounds recovery to "load
// the latest checkpoint, replay the log tail".
//
// The directory must be fresh (or hold nothing but an empty log):
// NewSharded refuses — by panic, like its other construction errors —
// to overwrite existing durable state; recovering it is what
// OpenRecovered is for. New ignores this option.
//
// Durability level: by default acknowledgements wait for the group
// commit's write into the log file, which survives a process crash;
// the file reaches disk on the OS's schedule plus explicit syncs at
// checkpoint, rotation, and Close. Add WithWALFsync to fsync every
// group commit and survive power loss, at a large latency cost.
func WithWAL(dir string) Option { return func(o *Options) { o.walDir = dir } }

// WithWALFsync upgrades WithWAL's durability to fsync-per-group-commit
// (power-loss durable). It has no effect without WithWAL.
func WithWALFsync() Option { return func(o *Options) { o.walFsync = true } }

// WithWALObserver registers fn to receive every byte span the WAL
// writes (seg, off, group), after the write succeeds and before the
// group's acknowledgements run. This is the replication shipping hook:
// internal/repl's Source.Export returns exactly such a function, and
// wiring it here is what makes "acked ⇒ shipped to the follower" hold.
// fn runs on the WAL flusher goroutine and must not retain group. It
// has no effect without WithWAL (or outside OpenRecovered).
func WithWALObserver(fn func(seg uint64, off int64, group []byte)) Option {
	return func(o *Options) { o.walObserve = fn }
}

// WithDeamortization replaces the amortized n*-rebuild with the paper's
// even/odd-slot incremental rebuild: worst-case O(1) inner operations
// per request instead of occasional O(n) rebuild spikes, at the price of
// extra constant-factor underallocation (and windows must span >= 2
// slots). Implies trimming.
func WithDeamortization() Option {
	return func(o *Options) { o.trim = true; o.deamortize = true }
}

// New builds the paper's Theorem 1 reallocating scheduler:
// alignment -> round-robin delegation over m machines -> per-machine
// window trimming -> reservation-based pecking-order scheduling.
func New(opts ...Option) Scheduler {
	o := defaultOptions(opts)
	s := buildStack(o, o.machines)
	if o.batchSize > 1 {
		return batchSized{Scheduler: s, size: o.batchSize}
	}
	return s
}

// batchSized decorates a scheduler with a preferred bulk chunk size for
// Run's auto-chunking, forwarding the bulk path of the wrapped stack.
type batchSized struct {
	sched.Scheduler
	size int
}

// BatchSize reports the preferred ApplyBatch chunk size.
func (b batchSized) BatchSize() int { return b.size }

// ApplyBatch forwards to the wrapped stack's bulk path.
func (b batchSized) ApplyBatch(reqs []Request) ([]Cost, error) {
	return sched.ApplyBatch(b.Scheduler, reqs)
}

// TakeBatchEvictions forwards sched.BatchEvictor from the wrapped stack.
func (b batchSized) TakeBatchEvictions() []string {
	return sched.TakeBatchEvictions(b.Scheduler)
}

// NewSharded builds the concurrent sharded front-end: the machine pool
// is partitioned across WithShards(n) shards (default 4), each running
// one Theorem 1 stack (as built by New) behind a worker goroutine and a
// buffered request channel. Requests route to shards by consistent
// hashing of the job name, with inserts a shard rejects as infeasible
// overflowing to the least-loaded shard. The result is safe for
// concurrent use; callers that are done with it should Close it to stop
// the shard workers.
//
// Sharding preserves Theorem 1's per-request cost bounds within each
// shard but enforces underallocation only shard-locally, so heavily
// skewed instances may pay overflow hops; Report exposes the per-shard
// breakdown.
//
// The machine pool is elastic: Resize/ResizeShard (and the async
// SubmitResize) grow or shrink shards' machine ranges at runtime with
// bounded migrations — growing never moves a job, shrinking re-places
// only the jobs of the drained machines.
//
// Validation matches shard.New: WithShards(0) — the unset zero value —
// means the default of 4, and negative shard counts panic. When the
// machine pool is smaller than the shard count the pool grows so every
// shard owns at least one machine.
func NewSharded(opts ...Option) *Sharded {
	o := defaultOptions(opts)
	o.shardedDefaults()
	var log *wal.Log
	if o.walDir != "" {
		l, recovered, err := wal.Open(o.walDir, wal.Options{Fsync: o.walFsync, Observer: o.walObserve})
		if err != nil {
			panic(fmt.Sprintf("realloc: WithWAL(%q): %v", o.walDir, err))
		}
		if !recovered.Empty {
			l.Close()
			panic(fmt.Sprintf("realloc: WithWAL(%q): directory holds an existing log or checkpoint; recover it with OpenRecovered", o.walDir))
		}
		log = l
	}
	return shard.New(shard.Config{
		Shards:    o.shards,
		Machines:  o.machines,
		Policy:    o.policy,
		Buffer:    o.buffer,
		BatchSize: o.batchSize,
		WAL:       log,
		// Always build the multi-machine wrapper (even for one machine)
		// so every shard implements sched.Elastic and can be resized.
		Factory: func(machines int) sched.Scheduler { return buildElasticStack(o, machines) },
	})
}

// Checkpoint is a point-in-time scheduler image: the WAL segment
// replay resumes from, the machine partition, and every active job
// with its placement. Sharded.Checkpoint writes one; OpenRecovered and
// NewShardedFromCheckpoint restore from one.
type Checkpoint = wal.Checkpoint

// NewShardedFromCheckpoint builds a sharded scheduler warm from a
// checkpoint image without opening a WAL: the image's machine
// partition and job placements are restored in O(jobs) (shard.Restore),
// and logging stays off. A nil checkpoint builds a fresh scheduler from
// the options alone (NewSharded's topology, without the WAL).
// OpenRecovered builds its scheduler with it.
//
// This is replication plumbing: a warm follower (internal/repl)
// constructs its per-tenant schedulers with it, tail-replays shipped
// records into them with logging off, and attaches a WAL only at
// promotion. Unlike NewSharded it returns errors instead of panicking,
// because a follower installs checkpoints it did not produce.
func NewShardedFromCheckpoint(ck *Checkpoint, opts ...Option) (*Sharded, error) {
	o := defaultOptions(opts)
	if o.shards < 0 {
		return nil, fmt.Errorf("realloc: WithShards(%d)", o.shards)
	}
	factory := func(machines int) sched.Scheduler { return buildElasticStack(o, machines) }
	if ck == nil {
		o.shardedDefaults()
		return shard.New(shard.Config{
			Shards:    o.shards,
			Machines:  o.machines,
			Policy:    o.policy,
			Buffer:    o.buffer,
			BatchSize: o.batchSize,
			Factory:   factory,
		}), nil
	}
	return shard.Restore(shard.Config{
		Policy:    o.policy,
		Buffer:    o.buffer,
		BatchSize: o.batchSize,
		Factory:   factory,
	}, ck)
}

// Recovery reports what OpenRecovered found and replayed.
type Recovery struct {
	// CheckpointLoaded reports whether a checkpoint image seeded the
	// scheduler (false: the whole log was replayed from genesis).
	CheckpointLoaded bool
	// CheckpointJobs is the number of jobs restored from the checkpoint.
	CheckpointJobs int
	// RecordsReplayed counts the WAL records replayed after the
	// checkpoint (a batch is one record).
	RecordsReplayed int
	// RequestsReplayed counts the individual requests those records
	// carried (batch members counted one by one).
	RequestsReplayed int
	// ResizesReplayed counts replayed pool-resize records.
	ResizesReplayed int
	// ReplayFailures counts requests that failed during replay. On a
	// log written by a sequential caller this is zero; after a
	// checkpoint raced in-flight requests, the benign duplicate-insert
	// and unknown-delete rejections of the overlap are counted here.
	ReplayFailures int
	// TruncatedBytes is the size of the torn tail (an interrupted group
	// commit) cleanly truncated from the log.
	TruncatedBytes int64
}

// OpenRecovered rebuilds a durable sharded scheduler from dir: it loads
// the checkpoint (when one exists), restores its image through the
// shard.Restore path — every layer rebuilt from the snapshot in
// O(jobs), no history replay — then replays the post-checkpoint log
// tail through the normal admission paths (Sharded.Replay, logging
// off), truncating any torn tail left by a crash mid-group-commit. The
// returned scheduler has the WAL re-attached and continues appending
// where the log left off.
//
// Pass the same Options the crashed process used. With a checkpoint the
// image owns the topology: the shard count and machine partition come
// from it, and explicit shard/machine options are ignored, so a process
// that restarts with its original options after a Resize recovers the
// resized pool. Without a checkpoint they come from the options, and the
// routing policy must match for the replay to reproduce the original
// placement decisions.
func OpenRecovered(dir string, opts ...Option) (*Sharded, *Recovery, error) {
	o := defaultOptions(opts)
	if o.shards < 0 {
		panic(fmt.Sprintf("realloc: WithShards(%d)", o.shards))
	}
	log, recovered, err := wal.Open(dir, wal.Options{Fsync: o.walFsync, Observer: o.walObserve})
	if err != nil {
		return nil, nil, err
	}
	info := &Recovery{TruncatedBytes: recovered.TruncatedBytes}
	// With a checkpoint the image owns the shard count and machine
	// partition; without one the options rebuild NewSharded's topology.
	s, err := NewShardedFromCheckpoint(recovered.Checkpoint, opts...)
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	if ck := recovered.Checkpoint; ck != nil {
		info.CheckpointLoaded = true
		info.CheckpointJobs = len(ck.Jobs)
	}
	for _, rec := range recovered.Records {
		failed, err := s.Replay(rec)
		if err != nil {
			s.Close()
			log.Close()
			return nil, nil, err
		}
		info.RecordsReplayed++
		info.RequestsReplayed += rec.Requests()
		if rec.Kind == wal.KindResize {
			info.ResizesReplayed++
		}
		info.ReplayFailures += failed
	}
	s.AttachWAL(log)
	return s, info, nil
}

// shardedDefaults applies NewSharded's topology defaulting: 4 shards
// when unset, panic on negative counts, and a pool grown so every
// shard owns at least one machine. NewShardedFromCheckpoint's
// checkpoint-less path (hence OpenRecovered's) MUST share this: replay
// reproduces the original placements only if it rebuilds the exact
// topology NewSharded chose.
func (o *Options) shardedDefaults() {
	if o.shards == 0 {
		o.shards = 4
	}
	if o.shards < 0 {
		panic(fmt.Sprintf("realloc: WithShards(%d)", o.shards))
	}
	if o.machines < o.shards {
		// Every shard needs at least one machine; grow the pool rather
		// than silently dropping shards.
		o.machines = o.shards
	}
}

func defaultOptions(opts []Option) Options {
	o := Options{machines: 1, gamma: 8, align: true, trim: true}
	for _, f := range opts {
		f(&o)
	}
	if o.batchSize < 0 {
		panic(fmt.Sprintf("realloc: WithBatchSize(%d)", o.batchSize))
	}
	return o
}

// buildStack composes the Theorem 1 stack over the given machine count:
// alignment -> balanced delegation -> trimming -> reservations.
func buildStack(o Options, machines int) sched.Scheduler {
	single := singleFactory(o)
	var s sched.Scheduler
	if machines == 1 {
		s = single()
	} else {
		s = multi.New(machines, multi.Factory(single))
	}
	if o.align {
		s = alignsched.New(s)
	}
	return s
}

// buildElasticStack is buildStack with the multi wrapper always present
// (even over a single machine), so the result implements sched.Elastic
// and a sharded front-end can grow or shrink it at runtime.
func buildElasticStack(o Options, machines int) sched.Scheduler {
	var s sched.Scheduler = multi.New(machines, multi.Factory(singleFactory(o)))
	if o.align {
		s = alignsched.New(s)
	}
	return s
}

// singleFactory builds the per-machine scheduler New composes:
// trimming (amortized or incremental) over the reservation core.
func singleFactory(o Options) func() sched.Scheduler {
	coreFactory := func() sched.Scheduler { return core.New(core.WithMaxIntervals(1 << 20)) }
	if !o.trim {
		return coreFactory
	}
	gamma := o.gamma
	if o.deamortize {
		return func() sched.Scheduler { return trim.NewIncremental(gamma, coreFactory) }
	}
	return func() sched.Scheduler { return trim.New(gamma, coreFactory) }
}

// NewReservation returns the bare single-machine reservation scheduler
// (Section 4) without trimming or alignment: windows must be aligned.
func NewReservation() Scheduler { return core.New() }

// NewNaive returns the naive pecking-order scheduler of Lemma 4
// (single-machine, aligned windows, O(log Δ) reallocations per request).
func NewNaive() Scheduler { return naive.New() }

// NewEDF returns the earliest-deadline-first recompute baseline on m
// machines: feasible whenever possible, but brittle — a single request
// can reallocate Θ(n) jobs.
func NewEDF(m int) Scheduler { return edf.New(m, edf.TieByArrival) }

// Apply routes one request to a scheduler.
func Apply(s Scheduler, r Request) (Cost, error) { return sched.Apply(s, r) }

// ApplyBatch serves a request slice in order; a failed request does not
// abort the batch. The returned cost slice is parallel to the requests;
// the error, when non-nil, is a *BatchError mapping failures back to
// request indices. A batch that contains a delete is served request by
// request and returns exactly what Apply would. An insert-only batch (a
// restore, a preload) takes the stack's bulk path, which merges the
// trim rebuilds of the ramp into one: when no insert fails, the final
// schedule is identical to applying the requests one at a time. On a
// job set that is NOT sufficiently underallocated, that rebuild can
// additionally shed active jobs admitted by earlier requests; those are
// reported in BatchError.Evicted, never silently.
func ApplyBatch(s Scheduler, reqs []Request) ([]Cost, error) {
	costs, err := sched.ApplyBatch(s, reqs)
	if ev := sched.TakeBatchEvictions(s); len(ev) > 0 {
		err = sched.WithEvictions(err, ev)
	}
	return costs, err
}

// BatchError aggregates the per-request failures of one ApplyBatch
// call; see sched.BatchError.
type BatchError = sched.BatchError

// Run feeds a request sequence to a scheduler, stopping at the first
// error and returning how many requests were served. Schedulers built
// with WithBatchSize(n > 1) are fed in chunks of n through ApplyBatch
// (failure detection then happens at chunk granularity: requests after
// the first failure within the failing chunk may already have been
// applied).
func Run(s Scheduler, reqs []Request) (int, error) {
	if bs, ok := s.(interface{ BatchSize() int }); ok && bs.BatchSize() > 1 {
		return sched.RunBatched(s, reqs, bs.BatchSize(), nil)
	}
	return sched.Run(s, reqs, nil)
}

// Verify checks that the scheduler's current assignment is a feasible
// schedule for its active job set: every job inside its window, machine
// indices in range, no two jobs sharing a machine-slot. It complements
// SelfCheck (which validates internal invariants) with a purely external
// check any caller can run.
//
// For a Sharded scheduler the jobs, the assignment, and the machine
// count are captured atomically in one control pass (Sharded.Snapshot),
// so Verify stays sound while other goroutines insert, delete, and
// resize concurrently. Calling s.Jobs() and s.Assignment() back to back
// instead is racy: requests that land between the two passes make the
// views disagree and produce spurious infeasibility reports.
func Verify(s Scheduler) error {
	if sh, ok := s.(*shard.Scheduler); ok {
		snap := sh.Snapshot()
		return feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines)
	}
	return feasible.VerifySchedule(s.Jobs(), s.Assignment(), s.Machines())
}
