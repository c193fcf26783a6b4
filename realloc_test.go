package realloc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/feasible"
	"repro/internal/shard"
)

func TestQuickstartFlow(t *testing.T) {
	s := New()
	c, err := s.Insert(Job{Name: "a", Window: Win(3, 17)}) // unaligned is fine
	if err != nil {
		t.Fatal(err)
	}
	if c.Reallocations < 1 {
		t.Errorf("cost = %+v", c)
	}
	p := s.Assignment()["a"]
	if p.Slot < 3 || p.Slot >= 17 {
		t.Errorf("slot %d outside window", p.Slot)
	}
	if _, err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if s.Active() != 0 {
		t.Error("delete failed")
	}
}

func TestErrorsExported(t *testing.T) {
	s := New()
	if _, err := s.Insert(Job{Name: "a", Window: Win(0, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(Job{Name: "a", Window: Win(0, 8)}); !errors.Is(err, ErrDuplicateJob) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := s.Delete("ghost"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown: %v", err)
	}
	bare := NewReservation()
	if _, err := bare.Insert(Job{Name: "m", Window: Win(1, 4)}); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned: %v", err)
	}
}

func TestMultiMachineStack(t *testing.T) {
	m := 4
	s := New(WithMachines(m))
	if s.Machines() != m {
		t.Fatalf("machines = %d", s.Machines())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		span := 64 + rng.Int63n(500)
		start := rng.Int63n(4000)
		if _, err := s.Insert(Job{Name: fmt.Sprintf("j%d", i), Window: Win(start, start+span)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), m); err != nil {
		t.Fatal(err)
	}
	// Every request migrates at most one job.
	for i := 0; i < 100; i++ {
		c, err := s.Delete(fmt.Sprintf("j%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if c.Migrations > 1 {
			t.Errorf("delete %d migrated %d", i, c.Migrations)
		}
	}
}

func TestBaselines(t *testing.T) {
	for name, s := range map[string]Scheduler{
		"naive": NewNaive(),
		"edf":   NewEDF(2),
	} {
		if _, err := s.Insert(Job{Name: "a", Window: Win(0, 8)}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := s.SelfCheck(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunAndApply(t *testing.T) {
	s := New()
	reqs := []Request{
		InsertReq("a", 0, 16),
		InsertReq("b", 0, 16),
		DeleteReq("a"),
	}
	n, err := Run(s, reqs)
	if err != nil || n != 3 {
		t.Fatalf("Run = %d, %v", n, err)
	}
	if s.Active() != 1 {
		t.Errorf("active = %d", s.Active())
	}
	if _, err := Apply(s, DeleteReq("b")); err != nil {
		t.Fatal(err)
	}
}

func TestStackSustainsChurn(t *testing.T) {
	s := New(WithMachines(2))
	rng := rand.New(rand.NewSource(9))
	var names []string
	id := 0
	for step := 0; step < 600; step++ {
		if len(names) > 30 && rng.Intn(2) == 0 {
			i := rng.Intn(len(names))
			if _, err := s.Delete(names[i]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			names = append(names[:i], names[i+1:]...)
			continue
		}
		span := 32 + rng.Int63n(200)
		start := rng.Int63n(2000)
		name := fmt.Sprintf("c%d", id)
		id++
		if _, err := s.Insert(Job{Name: name, Window: Win(start, start+span)}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		names = append(names, name)
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), 2); err != nil {
		t.Fatal(err)
	}
}

func TestNewShardedBasics(t *testing.T) {
	s := NewSharded(WithMachines(8), WithShards(4))
	defer s.Close()
	if s.Machines() != 8 {
		t.Fatalf("machines = %d", s.Machines())
	}
	if s.Shards() != 4 {
		t.Fatalf("shards = %d", s.Shards())
	}
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("s%03d", i)
		if _, err := s.Insert(Job{Name: name, Window: Win(0, 1024)}); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	if s.Active() != 60 {
		t.Fatalf("active = %d", s.Active())
	}
	if err := s.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if err := Verify(s); err != nil {
		t.Fatalf("Verify over sharded: %v", err)
	}
	rep := s.Report()
	if tot := rep.Total(); tot.Requests != 60 || tot.Active != 60 {
		t.Errorf("report total = %+v", tot)
	}
}

func TestNewShardedGrowsMachinePool(t *testing.T) {
	// machines < shards: the pool grows so each shard owns a machine.
	s := NewSharded(WithMachines(2), WithShards(4))
	defer s.Close()
	if s.Machines() != 4 {
		t.Errorf("machines = %d, want 4 (grown to shard count)", s.Machines())
	}
}

// TestVerifyShardedUnderConcurrentLoad is the regression test for the
// racy Verify: previously Verify read s.Jobs() and s.Assignment() in
// two separate control passes, so requests landing between them made
// the views disagree and Verify reported spurious infeasibility. The
// snapshot-backed Verify must stay green while 8+ goroutines mutate
// and the pool resizes concurrently.
func TestVerifyShardedUnderConcurrentLoad(t *testing.T) {
	const mutators = 9
	per := 300
	if testing.Short() {
		per = 80
	}
	s := NewSharded(WithMachines(8), WithShards(4))
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("v%d-%04d", g, i)
				if _, err := s.Insert(Job{Name: name, Window: Win(0, 4096)}); err != nil {
					t.Errorf("insert %s: %v", name, err)
					return
				}
				if i%3 != 0 {
					if _, err := s.Delete(name); err != nil {
						t.Errorf("delete %s: %v", name, err)
						return
					}
				}
			}
		}(g)
	}
	// One goroutine breathes the pool while Verify runs.
	stopResize := make(chan struct{})
	resizeDone := make(chan struct{})
	go func() {
		defer close(resizeDone)
		sizes := []int{12, 8, 10, 8}
		for i := 0; ; i++ {
			select {
			case <-stopResize:
				return
			default:
			}
			if _, err := s.Resize(sizes[i%len(sizes)]); err != nil {
				t.Errorf("resize: %v", err)
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	checks := 0
	for {
		select {
		case <-done:
			close(stopResize)
			<-resizeDone
			if checks == 0 {
				t.Fatal("Verify never ran while mutators were live")
			}
			if err := Verify(s); err != nil {
				t.Fatalf("final Verify: %v", err)
			}
			return
		default:
			if err := Verify(s); err != nil {
				t.Fatalf("Verify under concurrent load: %v", err)
			}
			checks++
		}
	}
}

// TestShardCountValidationUnified pins the validation contract shared
// by realloc.NewSharded and shard.New: zero means "use the documented
// default" (4 here, 1 in the low-level Config) and negative counts
// panic in both.
func TestShardCountValidationUnified(t *testing.T) {
	s := NewSharded() // WithShards unset = 0 = default
	if got := s.Shards(); got != 4 {
		t.Errorf("NewSharded default shards = %d, want 4", got)
	}
	s.Close()

	low := shard.New(shard.Config{Factory: func(m int) Scheduler { return New(WithMachines(m)) }})
	if got := low.Shards(); got != 1 {
		t.Errorf("shard.New default shards = %d, want 1", got)
	}
	low.Close()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a negative shard count", name)
			}
		}()
		f()
	}
	mustPanic("NewSharded", func() { NewSharded(WithShards(-1)).Close() })
	mustPanic("shard.New", func() {
		shard.New(shard.Config{Shards: -1, Factory: func(m int) Scheduler { return New(WithMachines(m)) }}).Close()
	})
}

// TestShardedResizePublicAPI drives the elastic control path through
// the public aliases: Resize, ResizeShard, ResizeCost and Snapshot.
func TestShardedResizePublicAPI(t *testing.T) {
	s := NewSharded(WithMachines(4), WithShards(2))
	defer s.Close()
	for i := 0; i < 10; i++ {
		if _, err := s.Insert(Job{Name: fmt.Sprintf("e%02d", i), Window: Win(0, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	var rc ResizeCost
	rc, err := s.Resize(8)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Cost.Migrations != 0 {
		t.Errorf("grow migrated %d jobs, want 0", rc.Cost.Migrations)
	}
	if s.Machines() != 8 {
		t.Fatalf("Machines() = %d, want 8", s.Machines())
	}
	if _, err := s.ResizeShard(1, -2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resize(4); err != nil {
		t.Fatal(err)
	}
	if s.Machines() != 4 {
		t.Fatalf("Machines() = %d, want 4", s.Machines())
	}
	if got := s.Active(); got != 10 {
		t.Fatalf("Active() = %d, want 10 (resizes must not lose jobs)", got)
	}
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot = s.Snapshot()
	if len(snap.Jobs) != 10 || snap.Machines != 4 {
		t.Errorf("snapshot: %d jobs over %d machines, want 10 over 4", len(snap.Jobs), snap.Machines)
	}
	rep := s.Report()
	if len(rep.Resizes) == 0 {
		t.Error("report holds no resize history")
	}
}
