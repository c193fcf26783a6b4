package realloc_test

import (
	"fmt"
	"sync"
	"testing"

	realloc "repro"
	"repro/internal/feasible"
	"repro/internal/jobs"
)

// TestResizeRecoveryEqualsLive: four goroutines stream churn into one
// WAL-backed scheduler, two request by request and two in small
// batches, while a fifth resizes the pool over and over. Recovery from
// the log must rebuild exactly the live schedule. That holds only if
// each resize's record sits in the log where the resize ran: no request
// may execute on one side of a resize and log on the other.
func TestResizeRecoveryEqualsLive(t *testing.T) {
	dir := t.TempDir()
	opts := []realloc.Option{realloc.WithShards(2), realloc.WithMachines(8)}
	s := realloc.NewSharded(append(opts, realloc.WithWAL(dir))...)
	defer s.Close()

	stop := make(chan struct{})
	resizes := make(chan int)
	go func() {
		n := 0
		defer func() { resizes <- n }()
		for {
			for _, m := range []int{12, 8, 10, 8} {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Resize(m); err != nil {
					t.Errorf("resize to %d: %v", m, err)
					return
				}
				n++
			}
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func(batched bool, stream []jobs.Request) {
			defer wg.Done()
			for len(stream) > 0 {
				n := 1
				if batched {
					n = min(4, len(stream))
				}
				// Any verdict will do: recovery must reproduce it.
				if n == 1 {
					_, _ = s.Apply(stream[0])
				} else {
					_, _ = s.ApplyBatch(stream[:n])
				}
				stream = stream[n:]
			}
		}(k%2 == 1, churnStream(fmt.Sprintf("c%d", k), 600))
	}
	wg.Wait()
	close(stop)
	if n := <-resizes; n == 0 {
		t.Fatal("no resize ran alongside the requests")
	}
	live := s.Snapshot()
	s.Close()

	rec, _, err := realloc.OpenRecovered(dir, opts...)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	snap := rec.Snapshot()
	rec.Close()
	if snap.Machines != live.Machines || len(snap.Jobs) != len(live.Jobs) {
		t.Fatalf("recovered %d jobs on %d machines, live has %d on %d",
			len(snap.Jobs), snap.Machines, len(live.Jobs), live.Machines)
	}
	moved := 0
	for name, want := range live.Assignment { //reallocvet:orderinsensitive (counts mismatches)
		if got, ok := snap.Assignment[name]; !ok || got != want {
			moved++
		}
	}
	if moved > 0 {
		t.Fatalf("recovery placed %d of %d live jobs differently from the live scheduler", moved, len(live.Jobs))
	}
	if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
		t.Fatalf("recovered schedule infeasible: %v", err)
	}
}
