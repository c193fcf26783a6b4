package realloc_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	realloc "repro"
	"repro/client"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/shard"
)

// TestServedRecoveryEqualsLive: two WAL-backed tenants, each served
// over two connections that pipeline their own churn streams at once.
// After a drain, each tenant's live snapshot must equal what recovery
// rebuilds from its WAL, exactly. The two connections of one tenant
// share one scheduler and one log, so this holds only if the server
// logs the tenant's batches in the order it executes them.
func TestServedRecoveryEqualsLive(t *testing.T) {
	root := t.TempDir()
	opts := []realloc.Option{realloc.WithShards(2), realloc.WithMachines(8)}
	s, err := server.Listen("127.0.0.1:0", server.Config{
		NewScheduler: func(tenant string) (*shard.Scheduler, error) {
			dir := filepath.Join(root, tenant)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			sc, _, err := realloc.OpenRecovered(dir, opts...)
			return sc, err
		},
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer s.Close()

	tenants := []string{"acme", "globex"}
	conns := make(map[string][]*client.Client)
	for _, tenant := range tenants {
		for k := 0; k < 2; k++ {
			c, err := client.Dial(s.Addr().String(), tenant)
			if err != nil {
				t.Fatalf("dial %s: %v", tenant, err)
			}
			defer c.Close()
			conns[tenant] = append(conns[tenant], c)
		}
	}
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		for k, c := range conns[tenant] {
			wg.Add(1)
			go func(c *client.Client, stream []jobs.Request) {
				defer wg.Done()
				pend := make([]*client.Pending, 0, len(stream))
				for _, r := range stream {
					p, err := c.SubmitAsync(r, 0)
					if err != nil {
						t.Errorf("submit %s: %v", r.Name, err)
						return
					}
					pend = append(pend, p)
				}
				for _, p := range pend {
					p.Wait() // any verdict: recovery must reproduce it
				}
			}(c, churnStream(fmt.Sprintf("c%d", k), 600))
		}
	}
	wg.Wait()

	live := make(map[string]client.Snapshot)
	for _, tenant := range tenants {
		for _, c := range conns[tenant] {
			if err := c.Drain(); err != nil {
				t.Fatalf("%s: drain: %v", tenant, err)
			}
		}
		if live[tenant], err = conns[tenant][0].Snapshot(); err != nil {
			t.Fatalf("%s: snapshot: %v", tenant, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for _, tenant := range tenants {
		rec, _, err := realloc.OpenRecovered(filepath.Join(root, tenant), opts...)
		if err != nil {
			t.Fatalf("%s: recover: %v", tenant, err)
		}
		snap := rec.Snapshot()
		rec.Close()
		want := live[tenant]
		if len(snap.Jobs) != len(want.Jobs) {
			t.Fatalf("%s: recovered %d jobs, live snapshot has %d", tenant, len(snap.Jobs), len(want.Jobs))
		}
		for _, pj := range want.Jobs {
			if got, ok := snap.Assignment[pj.Job.Name]; !ok || got != pj.Placement {
				t.Fatalf("%s: job %q recovered at %+v (present %v), live at %+v", tenant, pj.Job.Name, got, ok, pj.Placement)
			}
		}
		if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
			t.Fatalf("%s: recovered schedule infeasible: %v", tenant, err)
		}
		t.Logf("%s: %d jobs recovered as served", tenant, len(snap.Jobs))
	}
}

// churnStream is n requests over names with the given prefix: inserts
// into overlapping windows, and every third request deletes the job
// inserted six requests earlier, so placements depend on the order in
// which the two connections' requests execute.
func churnStream(prefix string, n int) []jobs.Request {
	reqs := make([]jobs.Request, 0, n)
	for i := 0; len(reqs) < n; i++ {
		start := int64(i*53%128) * 8
		reqs = append(reqs, jobs.InsertReq(fmt.Sprintf("%s-%04d", prefix, i), start, start+64+int64(i%4)*64))
		if i%2 == 1 && i >= 6 {
			reqs = append(reqs, jobs.DeleteReq(fmt.Sprintf("%s-%04d", prefix, i-6)))
		}
	}
	return reqs[:n]
}
