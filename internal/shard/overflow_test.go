package shard

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// hotPolicy routes every "hot-" name to shard 0 and spreads the rest —
// the directed version of the skew a pathological tenant's key
// distribution produces on the consistent-hash ring.
func hotPolicy() Policy {
	ring := NewRing(4, 0)
	return PolicyFunc(func(name string, shards int) int {
		if strings.HasPrefix(name, "hot-") {
			return 0
		}
		return ring.Route(name, shards)
	})
}

func hotStormScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s := New(Config{Shards: 4, Machines: 4, Factory: stackFactory, Policy: hotPolicy()})
	t.Cleanup(s.Close)
	return s
}

// hotInsert builds the storm request: every job wants the same aligned
// window [0, 4), so each one-machine shard holds exactly 4 of them.
func hotInsert(i int) jobs.Request {
	return jobs.InsertReq(fmt.Sprintf("hot-%02d", i), 0, 4)
}

// TestOverflowStormSequential drives 24 hot-key inserts at a 16-slot
// cluster whose policy routes all of them to shard 0 (capacity 4) and
// pins the overflow path's exact bookkeeping: single-hop termination,
// exact Overflow/Rerouted/Failures counters, and a feasible final
// schedule using the whole cluster, not just the hot shard.
func TestOverflowStormSequential(t *testing.T) {
	s := hotStormScheduler(t)
	okN, failN := 0, 0
	for i := 0; i < 24; i++ {
		_, err := s.Apply(hotInsert(i))
		switch {
		case err == nil:
			okN++
		case errors.Is(err, sched.ErrInfeasible):
			failN++
		default:
			t.Fatalf("insert %d: unexpected error %v", i, err)
		}
	}
	// Every request returned (no livelock), and exactly cluster
	// capacity committed: 4 on the hot shard, 12 via overflow.
	if okN != 16 || failN != 8 {
		t.Fatalf("ok=%d fail=%d, want 16/8", okN, failN)
	}
	rep := s.Report()
	tot := rep.Total()
	if tot.Active != 16 {
		t.Errorf("active = %d, want 16", tot.Active)
	}
	// The hot shard rejected everything past its 4 slots; nothing else
	// ever rerouted (a reroute on a fallback shard would mean the hop
	// ping-ponged instead of terminating).
	if rep.Shards[0].Rerouted != 20 || tot.Rerouted != 20 {
		t.Errorf("rerouted = %d on shard 0, %d total, want 20/20", rep.Shards[0].Rerouted, tot.Rerouted)
	}
	// Overflow counts successful single-hop placements only, and the
	// inflight-aware fallback pick spreads them evenly.
	if tot.Overflow != 12 {
		t.Errorf("overflow total = %d, want 12", tot.Overflow)
	}
	for i := 1; i <= 3; i++ {
		if rep.Shards[i].Overflow != 4 {
			t.Errorf("shard %d overflow = %d, want 4", i, rep.Shards[i].Overflow)
		}
	}
	if tot.Failures != 8 {
		t.Errorf("failures = %d, want 8", tot.Failures)
	}
	snap := s.Snapshot()
	if len(snap.Assignment) != 16 {
		t.Fatalf("snapshot has %d jobs, want 16", len(snap.Assignment))
	}
	if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
		t.Fatalf("final schedule infeasible: %v", err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowStormNoThunderingHerd inserts exactly cluster capacity
// from concurrent callers. The 12 overflow hops are chosen while their
// predecessors are still in flight, so only the inflight reservations
// in the hop's fallback pick keep them from stampeding onto one victim
// shard and bouncing off its full book: with the reservations every
// job lands, without them some of the herd fails while other shards
// sit empty.
func TestOverflowStormNoThunderingHerd(t *testing.T) {
	s := hotStormScheduler(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Apply(hotInsert(i)); err != nil {
				t.Errorf("insert %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	rep := s.Report()
	tot := rep.Total()
	if tot.Failures != 0 {
		t.Fatalf("failures = %d — overflow herd overran a shard that inflight accounting should have balanced", tot.Failures)
	}
	if tot.Active != 16 || tot.Overflow != 12 {
		t.Errorf("active = %d overflow = %d, want 16/12", tot.Active, tot.Overflow)
	}
	for i := 0; i < 4; i++ {
		if rep.Shards[i].Active != 4 {
			t.Errorf("shard %d active = %d, want a fully balanced 4", i, rep.Shards[i].Active)
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowStormBatch pushes the same 24-insert storm through
// ApplyBatch: each insert runs and hops in batch order, so the 20
// rerouted inserts spread with the same inflight-aware balance and the
// same exact counters as the per-request path.
func TestOverflowStormBatch(t *testing.T) {
	s := hotStormScheduler(t)
	reqs := make([]jobs.Request, 24)
	for i := range reqs {
		reqs[i] = hotInsert(i)
	}
	_, err := s.ApplyBatch(reqs)
	if err == nil {
		t.Fatal("want per-request failures past cluster capacity")
	}
	var be *sched.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("non-batch error: %v", err)
	}
	okN, failN := 0, 0
	for k := range reqs {
		switch e := be.At(k); {
		case e == nil:
			okN++
		case errors.Is(e, sched.ErrInfeasible):
			failN++
		default:
			t.Fatalf("request %d: unexpected error %v", k, e)
		}
	}
	if okN != 16 || failN != 8 {
		t.Fatalf("ok=%d fail=%d, want 16/8", okN, failN)
	}
	rep := s.Report()
	tot := rep.Total()
	if tot.Active != 16 || tot.Overflow != 12 || tot.Failures != 8 {
		t.Errorf("active=%d overflow=%d failures=%d, want 16/12/8", tot.Active, tot.Overflow, tot.Failures)
	}
	if rep.Shards[0].Rerouted != 20 || tot.Rerouted != 20 {
		t.Errorf("rerouted = %d on shard 0, %d total, want 20/20", rep.Shards[0].Rerouted, tot.Rerouted)
	}
	snap := s.Snapshot()
	if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
		t.Fatalf("final schedule infeasible: %v", err)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestOverflowMixedBatchEqualsPerRequest: a batch returns exactly what
// applying its requests one at a time returns, also when an insert
// overflows, whether or not the batch contains a delete. hot-04
// overflows from the full hot shard to shard 1, and n-5, routed to
// shard 1 by the ring, must queue behind it there, as it does per
// request.
func TestOverflowMixedBatchEqualsPerRequest(t *testing.T) {
	if got := hotPolicy().Route("n-5", 4); got != 1 {
		t.Fatalf("ring routes n-5 to shard %d, the test needs shard 1", got)
	}
	var inserts []jobs.Request
	for i := 0; i < 5; i++ {
		inserts = append(inserts, hotInsert(i))
	}
	inserts = append(inserts, jobs.InsertReq("n-5", 0, 4))
	mixed := append(append([]jobs.Request(nil), inserts...), jobs.DeleteReq("hot-00"))
	for _, tc := range []struct {
		name string
		reqs []jobs.Request
	}{{"mixed", mixed}, {"inserts-only", inserts}} {
		t.Run(tc.name, func(t *testing.T) { checkBatchEqualsPerRequest(t, tc.reqs) })
	}
}

// checkBatchEqualsPerRequest applies reqs to one hot-storm scheduler
// request by request and to another as one batch, and requires the
// same verdicts, costs, schedule and overflow counters.
func checkBatchEqualsPerRequest(t *testing.T, reqs []jobs.Request) {
	ref := hotStormScheduler(t)
	refCosts := make([]metrics.Cost, len(reqs))
	refErrs := make([]error, len(reqs))
	for i, r := range reqs {
		refCosts[i], refErrs[i] = ref.Apply(r)
	}
	s := hotStormScheduler(t)
	costs, err := s.ApplyBatch(reqs)
	var be *sched.BatchError
	if err != nil && !errors.As(err, &be) {
		t.Fatalf("non-batch error: %v", err)
	}
	for i := range reqs {
		var e error
		if be != nil {
			e = be.At(i)
		}
		if (e == nil) != (refErrs[i] == nil) || !sameSentinel(e, refErrs[i]) {
			t.Errorf("request %d: batch verdict %v, per-request %v", i, e, refErrs[i])
		}
		if costs[i] != refCosts[i] {
			t.Errorf("request %d: batch cost %+v, per-request %+v", i, costs[i], refCosts[i])
		}
	}
	want, got := ref.Snapshot().Assignment, s.Snapshot().Assignment
	if len(got) != len(want) {
		t.Fatalf("batch holds %d jobs, per-request %d", len(got), len(want))
	}
	for name, p := range want {
		if got[name] != p {
			t.Errorf("job %q at %+v batched, %+v per request", name, got[name], p)
		}
	}
	rt, bt := ref.Report().Total(), s.Report().Total()
	if rt.Overflow != bt.Overflow || rt.Rerouted != bt.Rerouted || rt.Failures != bt.Failures {
		t.Errorf("batch overflow/rerouted/failures %d/%d/%d, per-request %d/%d/%d",
			bt.Overflow, bt.Rerouted, bt.Failures, rt.Overflow, rt.Rerouted, rt.Failures)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// sameSentinel reports whether two failures carry the same scheduler
// sentinel (both nil counts as the same).
func sameSentinel(a, b error) bool {
	for _, sentinel := range []error{sched.ErrDuplicateJob, sched.ErrUnknownJob, sched.ErrInfeasible} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}
