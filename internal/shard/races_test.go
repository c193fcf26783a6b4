package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/sched"
)

// TestCloseRacesOverflowHop closes the scheduler while overflow hops
// are in flight: Close waits for every hop that started and later
// inserts fail with ErrClosed, with no panic and no race. Run with
// -race (CI does).
func TestCloseRacesOverflowHop(t *testing.T) {
	for round := 0; round < 20; round++ {
		// Shard 0 rejects everything, so every insert overflows to
		// shard 1.
		s := New(Config{
			Shards: 2, Machines: 2,
			Factory: func(m int) sched.Scheduler {
				return rejecting{stackFactory(m)}
			},
			Policy: PolicyFunc(func(string, int) int { return 0 }),
		})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					// Errors (infeasible or closed) are expected; the
					// point is the absence of panics and races.
					_, _ = s.Apply(jobs.InsertReq(fmt.Sprintf("r%d-g%d-%d", round, g, i), 0, 64))
				}
			}(g)
		}
		s.Close()
		wg.Wait()
		// Close is idempotent even with the hops settled afterward.
		s.Close()
	}
}

// TestClosedSchedulerErrClosedConsistently pins the post-Close error
// contract: EVERY entry point — sync Apply (insert, delete of a known
// name, delete of an unknown name), the Insert/Delete methods,
// ResizeShard, and ApplyBatch — reports the
// ErrClosed sentinel, never a routing-derived error like ErrUnknownJob
// and never a raw channel panic.
func TestClosedSchedulerErrClosedConsistently(t *testing.T) {
	s := New(Config{Shards: 2, Machines: 2, Factory: stackFactory})
	if _, err := s.Insert(jobs.Job{Name: "pre", Window: jobs.Window{Start: 0, End: 64}}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	probes := map[string]func() error{
		"Apply insert": func() error {
			_, err := s.Apply(jobs.InsertReq("post", 0, 64))
			return err
		},
		"Apply delete known": func() error {
			_, err := s.Apply(jobs.DeleteReq("pre"))
			return err
		},
		"Apply delete unknown": func() error {
			_, err := s.Apply(jobs.DeleteReq("ghost"))
			return err
		},
		"Insert method": func() error {
			_, err := s.Insert(jobs.Job{Name: "post2", Window: jobs.Window{Start: 0, End: 64}})
			return err
		},
		"Delete method": func() error {
			_, err := s.Delete("pre")
			return err
		},
		"ResizeShard": func() error {
			_, err := s.ResizeShard(0, 1)
			return err
		},
		"ApplyBatch": func() error {
			_, err := s.ApplyBatch([]jobs.Request{
				jobs.InsertReq("post4", 0, 64), jobs.DeleteReq("pre"), jobs.DeleteReq("ghost"),
			})
			return err
		},
	}
	for name, probe := range probes {
		if err := probe(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s on closed scheduler returned %v, want ErrClosed", name, err)
		}
	}
}

// TestApplyBatchRacesClose drives concurrent ApplyBatch calls against
// Close: no panics, and every per-request failure must be ErrClosed or
// a legitimate scheduling rejection. Run with -race (CI does).
func TestApplyBatchRacesClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := New(Config{Shards: 2, Machines: 2, Factory: stackFactory})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for b := 0; b < 5; b++ {
					batch := make([]jobs.Request, 0, 8)
					for i := 0; i < 8; i++ {
						batch = append(batch, jobs.InsertReq(
							fmt.Sprintf("r%d-g%d-b%d-%d", round, g, b, i), 0, 512))
					}
					_, err := s.ApplyBatch(batch)
					if err == nil {
						continue
					}
					var be *sched.BatchError
					if !errors.As(err, &be) {
						t.Errorf("non-batch error from ApplyBatch: %v", err)
						return
					}
					for i, e := range be.Errs {
						if e == nil {
							continue
						}
						if !errors.Is(e, ErrClosed) && !errors.Is(e, sched.ErrInfeasible) &&
							!errors.Is(e, sched.ErrDuplicateJob) && !errors.Is(e, sched.ErrUnknownJob) {
							t.Errorf("request %d failed with unexpected error %v", i, e)
							return
						}
					}
				}
			}(g)
		}
		s.Close()
		wg.Wait()
		s.Close() // idempotent with batches settled
	}
}

// TestSnapshotConsistentUnderLoad is the regression test for the racy
// Verify: 8+ goroutines mutate while snapshots are verified. With
// separate Jobs()/Assignment() passes this fails within a few
// iterations; the one-pass Snapshot must never report a mismatch.
// Run with -race (CI does).
func TestSnapshotConsistentUnderLoad(t *testing.T) {
	const mutators = 8
	per := 400
	if testing.Short() {
		per = 100
	}
	s := newElasticSharded(t, 4, 8)
	var wg sync.WaitGroup
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("m%d-%04d", g, i)
				if _, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: 0, End: 4096}}); err != nil {
					t.Errorf("insert %s: %v", name, err)
					return
				}
				if i%2 == 1 {
					if _, err := s.Delete(name); err != nil {
						t.Errorf("delete %s: %v", name, err)
						return
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	verifies := 0
	for {
		select {
		case <-done:
			if verifies == 0 {
				t.Fatal("no snapshot verified while mutators ran")
			}
			snap := s.Snapshot()
			if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
				t.Fatalf("final snapshot: %v", err)
			}
			return
		default:
			snap := s.Snapshot()
			if len(snap.Jobs) != len(snap.Assignment) {
				t.Fatalf("snapshot tore: %d jobs, %d placements", len(snap.Jobs), len(snap.Assignment))
			}
			if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
				t.Fatalf("snapshot under load: %v", err)
			}
			verifies++
		}
	}
}
