package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/trim"
)

// elasticStackFactory builds the always-elastic Theorem 1 stack
// realloc.NewSharded composes: the multi wrapper is present even over a
// single machine so the shard implements sched.Elastic.
func elasticStackFactory(machines int) sched.Scheduler {
	single := func() sched.Scheduler {
		return trim.New(8, func() sched.Scheduler { return core.New() })
	}
	return alignsched.New(multi.New(machines, multi.Factory(single)))
}

func newElasticSharded(t *testing.T, shards, machines int) *Scheduler {
	t.Helper()
	s := New(Config{Shards: shards, Machines: machines, Factory: elasticStackFactory})
	t.Cleanup(s.Close)
	return s
}

func TestResizeShardGrowMovesNothing(t *testing.T) {
	s := newElasticSharded(t, 2, 4)
	for i := 0; i < 24; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("g%02d", i), Window: jobs.Window{Start: 0, End: 512}}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Snapshot()
	rc, err := s.ResizeShard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cost.Migrations != 0 || rc.Evicted != 0 {
		t.Errorf("grow cost %+v, want zero migrations and evictions", rc)
	}
	if got := s.Machines(); got != 6 {
		t.Fatalf("Machines() = %d, want 6", got)
	}
	if got := s.ShardMachines(0); got != 4 {
		t.Fatalf("shard 0 machines = %d, want 4", got)
	}
	after := s.Snapshot()
	// Shard 0 jobs keep their exact placement; shard 1 jobs keep their
	// slot and shift machine index by the grow delta (a relabeling of
	// the global view, not a migration).
	for name, p := range before.Assignment {
		q, ok := after.Assignment[name]
		if !ok {
			t.Fatalf("job %q lost by grow", name)
		}
		if q.Slot != p.Slot {
			t.Errorf("grow moved %q from slot %d to %d", name, p.Slot, q.Slot)
		}
		if q.Machine != p.Machine && q.Machine != p.Machine+2 {
			t.Errorf("grow relabeled %q machine %d -> %d (want +0 or +2)", name, p.Machine, q.Machine)
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(after.Jobs, after.Assignment, after.Machines); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if len(rep.Resizes) != 1 || rep.Resizes[0].Delta != 2 || rep.Resizes[0].Shard != 0 {
		t.Errorf("resize history = %+v", rep.Resizes)
	}
	if rep.Shards[0].Machines != 4 || rep.Shards[1].Machines != 2 {
		t.Errorf("report machines = %d,%d, want 4,2", rep.Shards[0].Machines, rep.Shards[1].Machines)
	}
}

func TestResizeShardShrinkReinsertsEvicted(t *testing.T) {
	// Pin every insert to shard 0 and saturate its two machines with
	// span-1 jobs, so shrinking it must evict across shards.
	s := New(Config{
		Shards: 2, Machines: 4, Factory: elasticStackFactory,
		Policy: PolicyFunc(func(string, int) int { return 0 }),
	})
	defer s.Close()
	for i := 0; i < 2; i++ {
		w := jobs.Window{Start: int64(i), End: int64(i) + 1}
		for k := 0; k < 2; k++ {
			if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("pin-%d-%d", i, k), Window: w}); err != nil {
				t.Fatal(err)
			}
		}
	}
	jobsBefore := s.Report().Shards[0].Active
	if jobsBefore != 4 {
		t.Fatalf("shard 0 holds %d jobs, want 4", jobsBefore)
	}
	rc, err := s.ResizeShard(0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Evicted == 0 {
		t.Fatal("shrink of a saturated shard evicted nothing")
	}
	if rc.Dropped != 0 || rc.Reinserted != rc.Evicted {
		t.Fatalf("resize cost %+v: want every evicted job reinserted", rc)
	}
	// The migration bound: at most one migration per job that lived on
	// the evicted shard.
	if rc.Cost.Migrations > jobsBefore {
		t.Errorf("%d migrations for a shard that held %d jobs", rc.Cost.Migrations, jobsBefore)
	}
	if got := s.Active(); got != 4 {
		t.Fatalf("Active() = %d, want 4 (no job lost)", got)
	}
	if got := s.Machines(); got != 3 {
		t.Fatalf("Machines() = %d, want 3", got)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Shards[1].ResizeAbsorbed != rc.Reinserted {
		t.Errorf("shard 1 absorbed %d, want %d", rep.Shards[1].ResizeAbsorbed, rc.Reinserted)
	}
	if rep.Shards[0].ResizeEvicted != rc.Evicted {
		t.Errorf("shard 0 evicted %d, want %d", rep.Shards[0].ResizeEvicted, rc.Evicted)
	}
	// Every job — including the migrated ones — must still be deletable.
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			if _, err := s.Delete(fmt.Sprintf("pin-%d-%d", i, k)); err != nil {
				t.Fatalf("delete pin-%d-%d after shrink: %v", i, k, err)
			}
		}
	}
}

func TestResizePoolWide(t *testing.T) {
	s := newElasticSharded(t, 4, 8)
	for i := 0; i < 32; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("p%02d", i), Window: jobs.Window{Start: 0, End: 1024}}); err != nil {
			t.Fatal(err)
		}
	}
	rc, err := s.Resize(10)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Delta != 2 || rc.Cost.Migrations != 0 {
		t.Errorf("grow to 10: %+v, want delta 2 with zero migrations", rc)
	}
	want := []int{3, 3, 2, 2}
	for i, w := range want {
		if got := s.ShardMachines(i); got != w {
			t.Errorf("shard %d machines = %d, want %d", i, got, w)
		}
	}
	if _, err := s.Resize(6); err != nil {
		t.Fatal(err)
	}
	if got := s.Machines(); got != 6 {
		t.Fatalf("Machines() = %d, want 6", got)
	}
	if got := s.Active(); got != 32 {
		t.Fatalf("Active() = %d, want 32 (no job lost across resizes)", got)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resize(3); err == nil {
		t.Error("Resize below the shard count accepted")
	}
}

func TestResizeValidation(t *testing.T) {
	s := newElasticSharded(t, 2, 4)
	if _, err := s.ResizeShard(5, 1); err == nil {
		t.Error("resize of a nonexistent shard accepted")
	}
	if _, err := s.ResizeShard(0, -2); err == nil {
		t.Error("resize leaving an empty shard accepted")
	}
	if rc, err := s.ResizeShard(0, 0); err != nil || rc.Delta != 0 {
		t.Errorf("zero-delta resize: %+v, %v", rc, err)
	}
	// A non-elastic inner scheduler must be reported, not crashed into.
	ne := New(Config{Shards: 2, Machines: 2, Factory: stackFactory})
	defer ne.Close()
	if _, err := ne.ResizeShard(0, 1); !errors.Is(err, ErrNotElastic) {
		t.Errorf("resize of non-elastic shard: %v, want ErrNotElastic", err)
	}
}

// TestResizeStress churns jobs from many goroutines while the pool
// grows and shrinks, then cross-checks the final schedule with the
// external feasibility verifier. Run with -race (CI does).
func TestResizeStress(t *testing.T) {
	const (
		goroutines = 8
		shards     = 4
	)
	per := 400
	if testing.Short() {
		per = 100
	}
	s := newElasticSharded(t, shards, 8)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	resizerDone := make(chan struct{})
	// Resizer: breathe the pool 8 -> 16 -> 8 machines repeatedly.
	go func() {
		defer close(resizerDone)
		grow := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			target := 8
			if grow {
				target = 16
			}
			if _, err := s.Resize(target); err != nil {
				t.Errorf("resize to %d: %v", target, err)
				return
			}
			grow = !grow
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var live []string
			for i := 0; i < per; i++ {
				if len(live) > 20 && i%2 == 0 {
					name := live[0]
					live = live[1:]
					if _, err := s.Delete(name); err != nil {
						t.Errorf("worker %d delete %s: %v", g, name, err)
						return
					}
					continue
				}
				name := fmt.Sprintf("w%d-%04d", g, i)
				start := int64((g*per + i) % 2048)
				if _, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: start, End: start + 2048}}); err != nil {
					// A mid-shrink pool may genuinely reject; tolerate
					// infeasibility, nothing else.
					if !errors.Is(err, sched.ErrInfeasible) {
						t.Errorf("worker %d insert %s: %v", g, name, err)
						return
					}
					continue
				}
				live = append(live, name)
			}
		}(g)
	}
	// Wait for the churners, then stop the resizer.
	wg.Wait()
	close(stop)
	<-resizerDone

	if err := s.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after resize stress: %v", err)
	}
	snap := s.Snapshot()
	if len(snap.Jobs) != len(snap.Assignment) {
		t.Fatalf("%d jobs but %d placements", len(snap.Jobs), len(snap.Assignment))
	}
	if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
		t.Fatalf("VerifySchedule after resize stress: %v", err)
	}
	rep := s.Report()
	if len(rep.Resizes) == 0 {
		t.Fatal("stress run recorded no resizes")
	}
	if rt := rep.ResizeTotal(); rt.Dropped != 0 {
		t.Errorf("resize stress dropped %d jobs", rt.Dropped)
	}
	t.Logf("resize stress: %d resizes, report:\n%s", len(rep.Resizes), rep)
}
