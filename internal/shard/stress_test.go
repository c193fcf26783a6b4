package shard

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// TestConcurrentStress hammers one sharded scheduler from many
// goroutines — mixing the per-request Apply path with one-request
// ApplyBatch calls — and cross-checks the final assignment against the
// external feasibility verifier. Run with -race (CI does).
func TestConcurrentStress(t *testing.T) {
	const (
		goroutines = 12
		machines   = 8
		shards     = 4
	)
	steps := 6000
	if testing.Short() {
		steps = 1500
	}
	g, err := workload.NewGenerator(workload.Config{
		Seed: 42, Machines: machines, Gamma: 8, Horizon: 1 << 14, Steps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := g.Sequence()

	s := New(Config{Shards: shards, Machines: machines, Factory: stackFactory})
	defer s.Close()

	// Partition the sequence by job name so each goroutine replays its
	// jobs' inserts and deletes in order; across goroutines requests
	// are unsynchronized and hit the shards concurrently.
	lanes := make([][]jobs.Request, goroutines)
	for _, r := range reqs {
		lane := int(hash64(r.Name) % uint64(goroutines))
		lanes[lane] = append(lanes[lane], r)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for lane, rs := range lanes {
		wg.Add(1)
		go func(lane int, rs []jobs.Request) {
			defer wg.Done()
			// Names whose insert failed (shard-locally infeasible even
			// after overflow) or was dropped with it; their deletes
			// must be skipped.
			failed := make(map[string]bool)
			for i, r := range rs {
				if r.Kind == jobs.Delete && failed[r.Name] {
					continue
				}
				// Inserts always go through Apply, so an insert
				// that failed is known before its delete comes up;
				// deletes alternate between Apply and ApplyBatch.
				if r.Kind == jobs.Insert {
					if _, err := s.Apply(r); err != nil {
						failed[r.Name] = true
					}
					continue
				}
				var err error
				if i%2 == 0 {
					_, err = s.Apply(r)
				} else {
					_, err = s.ApplyBatch([]jobs.Request{r})
				}
				if err != nil {
					errCh <- fmt.Errorf("lane %d: %s: %w", lane, r, err)
					return
				}
			}
		}(lane, rs)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	if err := s.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck after stress: %v", err)
	}
	js, asg := s.Jobs(), s.Assignment()
	if len(js) != len(asg) {
		t.Fatalf("%d active jobs but %d placements", len(js), len(asg))
	}
	if err := feasible.VerifySchedule(js, asg, s.Machines()); err != nil {
		t.Fatalf("VerifySchedule after stress: %v", err)
	}
	rep := s.Report()
	tot := rep.Total()
	if tot.Requests == 0 {
		t.Fatal("no requests reached the shards")
	}
	t.Logf("stress report:\n%s", rep)
}
