package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	realloc "repro"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Round sizes. A round is a fixed request count, so no metric's work
// depends on how fast another phase ran.
const (
	churnTarget   = 6000   // stack_churn population; trim sits between n* thresholds
	churnRequests = 200000 // ≈1.5 s a round
	churnBlock    = 5000   // requests a block, see blockTimer
	stormCycles   = 5      // ≈73k requests, ≈1.4 s a round; a block is a cycle

	shardTarget     = 12000  // shard_wal population, split over the drivers
	shardRequests   = 160000 // total over the drivers, ≈2.2 s a round
	shardCheckpoint = 0.8    // share of the requests before Checkpoint
	shardBlock      = 4000   // requests a block and driver; divides both phases
)

var stackChurn = workload{
	name: "stack_churn",
	why:  "the paper's algorithm alone at a steady population: core, alignsched and multi do the work, trim is bookkeeping, everything above the stack is idle",
	round: func(r *run, ts *traceSet) (roundResult, error) {
		return stackRound(r, ts, churnBlock, func() (stream, error) {
			return churnStream(r.seed, stackMachines, churnTarget, churnRequests, "")
		})
	},
}

var stackStorm = workload{
	name: "stack_storm",
	why:  "the same stack walked across trim's n* thresholds: trim rebuilds and core re-inserts dominate, so a change that helps bookkeeping and hurts rebuilds shows",
	round: func(r *run, ts *traceSet) (roundResult, error) {
		return stackRound(r, ts, 0, func() (stream, error) { return stormStream(r.seed, stormCycles) })
	},
}

// stackRound measures one goroutine calling Apply per request on the
// Theorem 1 stack. block is the requests a block; 0 splits the stream into
// stormCycles equal blocks.
func stackRound(r *run, ts *traceSet, block int, gen func() (stream, error)) (roundResult, error) {
	var res roundResult
	t0 := time.Now()
	st, err := gen()
	if err != nil {
		return res, err
	}
	s, t := newStack(ts)
	res.attempted = len(st.preload) + len(st.reqs)
	res.failed = preload(s, st.preload)
	res.lat = make([]int64, len(st.reqs))
	if block == 0 {
		block = len(st.reqs) / stormCycles
	}
	bt := blockTimer{size: block}
	before := memNow(ts)
	if ts != nil {
		ts.startClock()
	}
	res.setup = time.Since(t0)

	start := time.Now()
	bt.start()
	for i, rq := range st.reqs {
		if t != nil {
			t.begin(layerApply, rq.Kind, rq.Name, 1)
		}
		q0 := time.Now()
		c, err := sched.Apply(s, rq)
		res.lat[i] = int64(time.Since(q0))
		if t != nil {
			t.end(c, nil)
		}
		bt.done()
		if err != nil {
			res.failed++
			continue
		}
		res.served++
		res.cost.Add(c)
		if c.Migrations > 1 {
			res.problems = append(res.problems, fmt.Sprintf("request %d (%s) cost %d migrations, Theorem 1 allows one", i, rq, c.Migrations))
		}
	}
	res.onClock = time.Since(start)
	res.rates = bt.rates
	r.memDelta(ts, before, len(st.reqs))

	js := s.Jobs()
	if err := checkSchedule(js, s.Assignment(), s.Machines(), st.active); err != nil {
		res.problems = append(res.problems, err.Error())
	}

	// Nothing is durable here; bringing the state back means admitting the
	// final job set into a fresh stack in one batch, the path a checkpoint
	// restore takes through these layers.
	q0 := time.Now()
	fresh := realloc.New(realloc.WithMachines(stackMachines))
	left, err := sched.RestoreJobs(fresh, js)
	res.recover = time.Since(q0)
	if err != nil || len(left) > 0 {
		res.problems = append(res.problems, fmt.Sprintf("restore left %d jobs out (%v)", len(left), err))
	} else if err := checkSchedule(fresh.Jobs(), fresh.Assignment(), fresh.Machines(), js); err != nil {
		res.problems = append(res.problems, "restored: "+err.Error())
	}
	return res, nil
}

var shardWAL = workload{
	name:    "shard_wal",
	why:     "closed-loop drivers calling the sharded, logged front-end per request: shard dispatch and WAL group commit do the marginal work over stack_churn; recovery replays per-request records on a checkpoint",
	usesWAL: true,
	round:   shardRound,
}

// shardDrivers is the closed-loop client count of shard_wal.
func shardDrivers() int { return min(runtime.NumCPU(), 4) }

func shardRound(r *run, ts *traceSet) (roundResult, error) {
	var res roundResult
	t0 := time.Now()
	dir, err := r.roundDir()
	if err != nil {
		return res, err
	}
	drivers := shardDrivers()
	streams := make([]stream, drivers)
	var want []jobs.Job
	for d := range streams {
		streams[d], err = churnStream(subSeed(r.seed, uint64(d)), poolMachines/drivers, shardTarget/drivers,
			shardRequests/drivers, fmt.Sprintf("d%d-", d))
		if err != nil {
			return res, err
		}
		want = append(want, streams[d].active...)
		res.attempted += len(streams[d].preload) + len(streams[d].reqs)
	}
	var w walCounts
	var s *shard.Scheduler
	if ts == nil {
		s = realloc.NewSharded(append(poolOptions(), realloc.WithWAL(dir))...)
	} else if s, err = openSharded(ts, dir, w.observe); err != nil {
		return res, err
	}
	for _, st := range streams {
		res.failed += preload(s, st.preload)
	}
	lats := make([][]int64, drivers)
	tracers := make([]*tracer, drivers)
	timers := make([]*blockTimer, drivers)
	for d := range lats {
		lats[d] = make([]int64, len(streams[d].reqs))
		timers[d] = &blockTimer{size: shardBlock}
		if ts != nil {
			tracers[d] = ts.tracer()
		}
	}
	base, walBase := s.Report(), w.read()
	before := memNow(ts)
	if ts != nil {
		ts.startClock()
	}
	res.setup = time.Since(t0)

	// phase drives requests [lo, hi) of every stream to completion.
	var mu sync.Mutex
	phase := func(lo, hi float64) time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for d := 0; d < drivers; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				reqs, t, bt := streams[d].reqs, tracers[d], timers[d]
				failed := 0
				bt.start()
				for i := int(lo * float64(len(reqs))); i < int(hi*float64(len(reqs))); i++ {
					if t != nil {
						t.begin(layerShard, reqs[i].Kind, reqs[i].Name, 1)
					}
					q0 := time.Now()
					c, err := s.Apply(reqs[i])
					lats[d][i] = int64(time.Since(q0))
					if t != nil {
						t.end(c, nil)
					}
					bt.done()
					if err != nil {
						failed++
					}
				}
				mu.Lock()
				res.failed += failed
				mu.Unlock()
			}(d)
		}
		wg.Wait()
		return time.Since(start)
	}
	res.onClock = phase(0, shardCheckpoint)
	q0 := time.Now()
	if err := s.Checkpoint(); err != nil {
		return res, fmt.Errorf("checkpoint: %w", err)
	}
	checkpoint := time.Since(q0)
	res.onClock += phase(shardCheckpoint, 1)
	res.rates = sumRates(timers)
	res.lat = interleave(lats)
	r.memDelta(ts, before, shardRequests)

	rep := s.Report()
	res.cost, res.served = costSince(base, rep)
	snap := s.Snapshot()
	s.Close()
	if err := checkSchedule(snap.Jobs, snap.Assignment, snap.Machines, want); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	if ts != nil {
		r.shardCounters(base, rep)
		r.walCounters(&w, walBase, res.served, dir)
		r.c.sample("wal.checkpoint_ms", float64(checkpoint)/1e6)
	}

	// The checkpoint restore recomputes placements, so only the job set
	// and feasibility carry over.
	if res.recover, err = recoverDir(dir, snap, false); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	return res, nil
}

// preload takes a scheduler to a stream's starting population through
// the bulk path, in frames of the size the served workloads preload with,
// and returns how many requests failed. The bulk path lands on the same
// schedule as per-request calls and merges the ramp's trim rebuilds, which
// keeps set-up short.
func preload(s sched.Scheduler, reqs []jobs.Request) (failed int) {
	for lo := 0; lo < len(reqs); lo += serveBatch {
		_, err := sched.ApplyBatch(s, reqs[lo:min(lo+serveBatch, len(reqs))])
		var be *sched.BatchError
		if errors.As(err, &be) {
			failed += be.Failed
		} else if err != nil {
			failed++
		}
	}
	return failed
}

// recoverDir times realloc.OpenRecovered on a directory a workload wrote
// and closed, and checks the recovered schedule against the last snapshot
// taken before the close: feasible, the same jobs, and with placements set
// the same placements.
func recoverDir(dir string, want shard.Snapshot, placements bool) (time.Duration, error) {
	q0 := time.Now()
	s, info, err := realloc.OpenRecovered(dir, poolOptions()...)
	d := time.Since(q0)
	if err != nil {
		return d, fmt.Errorf("recovering %s: %w", dir, err)
	}
	defer s.Close()
	if info.ReplayFailures > 0 {
		return d, fmt.Errorf("recovering %s: %d replay failures", dir, info.ReplayFailures)
	}
	back := s.Snapshot()
	if err := checkSchedule(back.Jobs, back.Assignment, back.Machines, want.Jobs); err != nil {
		return d, fmt.Errorf("recovered %s: %w", dir, err)
	}
	if placements {
		if err := samePlacements(back.Assignment, want.Assignment); err != nil {
			return d, fmt.Errorf("recovered %s: %w", dir, err)
		}
	}
	return d, nil
}

// costSince is the paper's cost, and the requests it was paid for,
// between two reports of one scheduler.
func costSince(base, now metrics.ShardReport) (metrics.Cost, int) {
	b, n := base.Total().Cost, now.Total().Cost
	return metrics.Cost{Reallocations: n.Reallocations - b.Reallocations, Migrations: n.Migrations - b.Migrations},
		now.Served() - base.Served()
}

// interleave merges the drivers' latency samples round-robin: the
// drivers run side by side, so that is their on-clock order.
func interleave(lats [][]int64) []int64 {
	var out []int64
	for i := 0; ; i++ {
		more := false
		for _, l := range lats {
			if i < len(l) {
				out = append(out, l[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// walCounts is a WAL observer that counts group commits and bytes, and
// passes each span on to next (replication's shipping hook) when set.
type walCounts struct {
	groups, bytes atomic.Int64
	next          func(seg uint64, off int64, p []byte)
}

func (w *walCounts) observe(seg uint64, off int64, p []byte) {
	if off > 0 { // offset 0 is a segment header, not a group
		w.groups.Add(1)
		w.bytes.Add(int64(len(p)))
	}
	if w.next != nil {
		w.next(seg, off, p)
	}
}

// walBase is a walCounts reading taken when the clock starts.
type walBase struct{ groups, bytes int64 }

func (w *walCounts) read() walBase { return walBase{w.groups.Load(), w.bytes.Load()} }

// walCounters folds one scheduler's WAL activity since base into the run:
// what the observer saw for `requests` logged requests, and the record
// shape wal.Read finds on disk afterwards.
func (r *run) walCounters(w *walCounts, base walBase, requests int, dir string) {
	r.c.add("wal.groups", float64(w.groups.Load()-base.groups))
	r.c.add("wal.bytes", float64(w.bytes.Load()-base.bytes))
	r.c.add("wal.requests", float64(requests))
	if rec, err := wal.Read(dir); err == nil {
		r.c.add("wal.records", float64(len(rec.Records)))
		r.c.add("wal.record_requests", float64(rec.Requests()))
	}
}

// shardCounters folds the dispatch counters between two reports of one
// scheduler into the run. The wait histogram cannot be subtracted, so it
// covers the preload too.
func (r *run) shardCounters(base, rep metrics.ShardReport) {
	b, t := base.Total(), rep.Total()
	r.c.add("shard.requests", float64(t.Requests-b.Requests))
	r.c.add("shard.batches", float64(t.Batches-b.Batches))
	r.c.add("shard.overflow", float64(t.Overflow-b.Overflow))
	r.c.add("shard.rerouted", float64(t.Rerouted-b.Rerouted))
	r.c.sample("shard.imbalance", rep.Imbalance())
	r.c.sample("shard.dispatch_wait_p50_us", float64(t.Latency.Quantile(0.50))/1e3)
	r.c.sample("shard.dispatch_wait_p99_us", float64(t.Latency.Quantile(0.99))/1e3)
}

// memNow reads the allocator's counters at a phase boundary of a traced
// round (it stops the world, so never on the clock).
func memNow(ts *traceSet) *runtime.MemStats {
	if ts == nil {
		return nil
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return &m
}

// memDelta charges the allocations since before to reqs requests.
func (r *run) memDelta(ts *traceSet, before *runtime.MemStats, reqs int) {
	if ts == nil {
		return
	}
	after := memNow(ts)
	r.c.add("proc.requests", float64(reqs))
	r.c.add("proc.allocs", float64(after.Mallocs-before.Mallocs))
	r.c.add("proc.bytes", float64(after.TotalAlloc-before.TotalAlloc))
	r.c.add("proc.gc_cycles", float64(after.NumGC-before.NumGC))
	r.c.add("proc.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
}
