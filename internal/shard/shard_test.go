package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/trim"
)

// stackFactory builds the same Theorem 1 stack realloc.New composes,
// sized to one shard's machine share.
func stackFactory(machines int) sched.Scheduler {
	single := func() sched.Scheduler {
		return trim.New(8, func() sched.Scheduler { return core.New() })
	}
	var s sched.Scheduler
	if machines == 1 {
		s = single()
	} else {
		s = multi.New(machines, multi.Factory(single))
	}
	return alignsched.New(s)
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(name string, shards int) int

// Route implements Policy.
func (f PolicyFunc) Route(name string, shards int) int { return f(name, shards) }

func newTestSharded(t *testing.T, shards, machines int) *Scheduler {
	t.Helper()
	s := New(Config{Shards: shards, Machines: machines, Factory: stackFactory})
	t.Cleanup(s.Close)
	return s
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	const shards = 8
	r := NewRing(shards, 0)
	counts := make([]int, shards)
	for i := 0; i < 4000; i++ {
		name := fmt.Sprintf("job-%05d", i)
		a := r.Route(name, shards)
		if b := r.Route(name, shards); a != b {
			t.Fatalf("ring not deterministic: %q -> %d then %d", name, a, b)
		}
		counts[a]++
	}
	// Sequential names are the adversarial case for weak hashes: without
	// an avalanche finalizer they clump onto a few arcs of the ring.
	for i, c := range counts {
		if c < 4000/shards/4 {
			t.Errorf("shard %d received %d of 4000 jobs — want at least a quarter of the fair share", i, c)
		}
		if c > 4000/2 {
			t.Errorf("shard %d received %d of 4000 jobs — pathological skew", i, c)
		}
	}
}

func TestRingConsistency(t *testing.T) {
	// Growing the ring by one shard should remap well under half of the
	// population (hash-mod would remap ~80%).
	r4, r5 := NewRing(4, 0), NewRing(5, 0)
	moved := 0
	const n = 4000
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("job-%05d", i)
		if r4.Route(name, 4) != r5.Route(name, 5) {
			moved++
		}
	}
	if moved > n/2 {
		t.Errorf("4->5 shards remapped %d/%d jobs; want < half", moved, n)
	}
	if moved == 0 {
		t.Error("4->5 shards remapped nothing — ring is not routing by hash")
	}
}

func TestApplyInsertDelete(t *testing.T) {
	s := newTestSharded(t, 4, 8)
	if got := s.Machines(); got != 8 {
		t.Fatalf("Machines() = %d, want 8", got)
	}
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("job-%03d", i)
		c, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: 0, End: 256}})
		if err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
		if c.Reallocations < 1 {
			t.Errorf("insert %s cost %+v, want >= 1 reallocation", name, c)
		}
	}
	if got := s.Active(); got != 40 {
		t.Fatalf("Active() = %d, want 40", got)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), s.Machines()); err != nil {
		t.Fatalf("VerifySchedule: %v", err)
	}
	// Machine indices must land in the global range.
	for name, p := range s.Assignment() {
		if p.Machine < 0 || p.Machine >= s.Machines() {
			t.Fatalf("job %q on machine %d, want [0,%d)", name, p.Machine, s.Machines())
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Delete(fmt.Sprintf("job-%03d", i)); err != nil {
			t.Fatalf("delete job-%03d: %v", i, err)
		}
	}
	if got := s.Active(); got != 0 {
		t.Fatalf("Active() after deletes = %d, want 0", got)
	}
}

func TestDuplicateAndUnknown(t *testing.T) {
	s := newTestSharded(t, 2, 2)
	j := jobs.Job{Name: "dup", Window: jobs.Window{Start: 0, End: 64}}
	if _, err := s.Insert(j); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	if _, err := s.Insert(j); !errors.Is(err, sched.ErrDuplicateJob) {
		t.Errorf("second insert err = %v, want ErrDuplicateJob", err)
	}
	if _, err := s.Delete("ghost"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Errorf("delete ghost err = %v, want ErrUnknownJob", err)
	}
	// The failed duplicate must not corrupt the routing table.
	if _, err := s.Delete("dup"); err != nil {
		t.Errorf("delete dup after duplicate attempt: %v", err)
	}
}

// rejecting wraps a scheduler and refuses every insert, simulating a
// shard whose machine range is locally overallocated.
type rejecting struct{ sched.Scheduler }

func (r rejecting) Insert(jobs.Job) (metrics.Cost, error) {
	return metrics.Cost{}, sched.ErrInfeasible
}

func TestOverflowFallback(t *testing.T) {
	built := 0
	factory := func(machines int) sched.Scheduler {
		built++
		inner := stackFactory(machines)
		if built == 1 {
			return rejecting{inner}
		}
		return inner
	}
	// Route everything to the rejecting shard 0; inserts must overflow
	// to the other shard and deletes must find them there.
	s := New(Config{
		Shards: 2, Machines: 2, Factory: factory,
		Policy: PolicyFunc(func(string, int) int { return 0 }),
	})
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("ovf-%d", i), Window: jobs.Window{Start: 0, End: 128}}); err != nil {
			t.Fatalf("insert ovf-%d: %v", i, err)
		}
	}
	rep := s.Report()
	if rep.Shards[0].Active != 0 {
		t.Errorf("rejecting shard holds %d jobs, want 0", rep.Shards[0].Active)
	}
	// A rejection that a fallback absorbed is rerouted, not a terminal
	// failure; the report must show every insert as served.
	if rep.Shards[0].Rerouted != 10 || rep.Shards[0].Failures != 0 {
		t.Errorf("rejecting shard = %+v, want 10 rerouted, 0 failures", rep.Shards[0])
	}
	if rep.Shards[1].Active != 10 || rep.Shards[1].Overflow != 10 {
		t.Errorf("fallback shard = %+v, want 10 active, 10 overflow", rep.Shards[1])
	}
	if got := rep.Served(); got != 10 {
		t.Errorf("Served() = %d, want 10", got)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Delete(fmt.Sprintf("ovf-%d", i)); err != nil {
			t.Fatalf("delete ovf-%d: %v", i, err)
		}
	}
}

func TestOverflowExhausted(t *testing.T) {
	// Every shard rejects: the insert must fail with ErrInfeasible and
	// leave no residue in the routing table.
	s := New(Config{
		Shards: 2, Machines: 2,
		Factory: func(m int) sched.Scheduler { return rejecting{stackFactory(m)} },
	})
	defer s.Close()
	if _, err := s.Insert(jobs.Job{Name: "doomed", Window: jobs.Window{Start: 0, End: 64}}); !errors.Is(err, sched.ErrInfeasible) {
		t.Fatalf("insert err = %v, want ErrInfeasible", err)
	}
	if got := s.Active(); got != 0 {
		t.Errorf("Active() = %d, want 0", got)
	}
	rep := s.Report()
	if tot := rep.Total(); tot.Failures != 1 || tot.Rerouted != 1 {
		t.Errorf("report total = %+v, want 1 terminal failure and 1 reroute", tot)
	}
	if got := rep.Served(); got != 0 {
		t.Errorf("Served() = %d, want 0", got)
	}
	// The name must be reusable after the failure.
	if _, err := s.Delete("doomed"); !errors.Is(err, sched.ErrUnknownJob) {
		t.Errorf("delete doomed err = %v, want ErrUnknownJob", err)
	}
}

func TestMachinePartition(t *testing.T) {
	// 10 machines over 4 shards: 3,3,2,2 with contiguous bases.
	s := newTestSharded(t, 4, 10)
	rep := s.Report()
	want := []int{3, 3, 2, 2}
	for i, sc := range rep.Shards {
		if sc.Machines != want[i] {
			t.Errorf("shard %d machines = %d, want %d", i, sc.Machines, want[i])
		}
	}
	if got := s.Machines(); got != 10 {
		t.Errorf("Machines() = %d, want 10", got)
	}
}

func TestClose(t *testing.T) {
	s := New(Config{Shards: 2, Machines: 2, Factory: stackFactory})
	if _, err := s.Insert(jobs.Job{Name: "a", Window: jobs.Window{Start: 0, End: 64}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Insert(jobs.Job{Name: "b", Window: jobs.Window{Start: 0, End: 64}}); !errors.Is(err, ErrClosed) {
		t.Errorf("insert after close err = %v, want ErrClosed", err)
	}
	if _, err := s.Apply(jobs.DeleteReq("a")); !errors.Is(err, ErrClosed) {
		t.Errorf("delete after close err = %v, want ErrClosed", err)
	}
}

func TestShardReportString(t *testing.T) {
	s := newTestSharded(t, 2, 2)
	if _, err := s.Insert(jobs.Job{Name: "x", Window: jobs.Window{Start: 0, End: 64}}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	rep := s.Report()
	if rep.Imbalance() <= 0 {
		t.Errorf("Imbalance() = %v, want > 0 after a request", rep.Imbalance())
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}
