package server_test

import (
	"errors"
	"testing"

	"repro/client"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestServerHotKeyTraceReplay replays a hot-key trace through the
// served path: 80% of the inserts route to shard 0 of the 2-shard
// per-tenant scheduler, so the storm crosses the reader's batching,
// the admission budget, and the shard overflow path at once. The contract
// under that pressure: every request gets exactly one verdict (no
// lost acks, no unbounded queueing — overload is an explicit ack),
// every verdict is OK/Overload/UnknownJob, and the final snapshot is
// exactly the set of OK-acked inserts minus OK-acked deletes.
func TestServerHotKeyTraceReplay(t *testing.T) {
	// The per-tenant scheduler (newScheduler) runs 2 shards with the
	// default routing policy, which is exactly NewRing(2) — so an
	// identical client-side ring predicts the server's routing and lets
	// the trace aim at shard 0.
	ring := shard.NewRing(2)
	reqs, err := workload.TraceReplay(workload.TraceConfig{
		Seed: 11, Machines: 8, Steps: 600,
		HotFraction: 0.8,
		HotRoute:    func(name string) bool { return ring.Route(name, 2) == 0 },
	})
	if err != nil {
		t.Fatal(err)
	}

	s := startServer(t, server.Config{MaxInflight: 64})
	c := dial(t, s, "acme")

	type pending struct {
		p   *client.Pending
		req jobs.Request
	}
	pend := make([]pending, 0, len(reqs))
	for i, r := range reqs {
		p, err := c.SubmitAsync(r, 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pend = append(pend, pending{p, r})
	}

	live := map[string]bool{}
	var ok, over, unknown int
	for i, pe := range pend {
		switch err := pe.p.Wait(); {
		case err == nil:
			ok++
			if pe.req.Kind == jobs.Insert {
				live[pe.req.Name] = true
			} else {
				if !live[pe.req.Name] {
					t.Fatalf("request %d: delete of %q acked ok but its insert never was", i, pe.req.Name)
				}
				delete(live, pe.req.Name)
			}
		case errors.Is(err, client.ErrOverload):
			over++
		case errors.Is(err, client.ErrUnknownJob):
			unknown++
			// Only a delete whose insert was shed upstream may land
			// here; an unknown verdict for a live name is a desync.
			if pe.req.Kind != jobs.Delete {
				t.Fatalf("request %d: insert %q acked unknown-job", i, pe.req.Name)
			}
			if live[pe.req.Name] {
				t.Fatalf("request %d: delete of live job %q acked unknown-job", i, pe.req.Name)
			}
		default:
			t.Fatalf("request %d (%s): unexpected verdict %v", i, pe.req, err)
		}
	}
	if ok+over+unknown != len(reqs) {
		t.Fatalf("verdicts %d+%d+%d != %d submits", ok, over, unknown, len(reqs))
	}
	if over == 0 {
		t.Fatal("trace never tripped the admission budget — storm too gentle to test overload acks")
	}
	t.Logf("trace: %d ok, %d overloaded, %d unknown deletes", ok, over, unknown)

	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != len(live) {
		t.Fatalf("snapshot holds %d jobs but the acks say %d are live", len(snap.Jobs), len(live))
	}
	for _, pj := range snap.Jobs {
		if !live[pj.Job.Name] {
			t.Fatalf("snapshot holds %q which was never acked live", pj.Job.Name)
		}
	}
	verifySnapshot(t, snap)
}

// TestServerHotKeyTraceOverflowCounters replays the skewed trace and
// then checks the tenant's shard report: the hot shard must actually
// have rerouted inserts and the cold shard must have served overflow —
// proof the served path exercised the overflow machinery rather than
// absorbing the skew some other way.
func TestServerHotKeyTraceOverflowCounters(t *testing.T) {
	var tenantSched *shard.Scheduler
	cfg := server.Config{NewScheduler: func(tenant string) (*shard.Scheduler, error) {
		s, err := newScheduler(tenant)
		if err == nil && tenantSched == nil {
			tenantSched = s
		}
		return s, err
	}}
	ring := shard.NewRing(2)
	hotShard := ring.Route("probe", 2) // either shard works as the hot target
	// Gamma 1 over a short horizon: the global budget then admits up to
	// 8 jobs per slot while the hot shard's 4 machines hold only 4, so
	// skewed slots genuinely exceed local capacity. (With the stack's
	// usual gamma 8 the budget caps density below any shard's capacity
	// and no skew can force overflow.)
	reqs, err := workload.TraceReplay(workload.TraceConfig{
		Seed: 13, Machines: 8, Gamma: 1, Horizon: 64, Steps: 500,
		HotFraction: 0.9,
		HotRoute:    func(name string) bool { return ring.Route(name, 2) == hotShard },
	})
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, cfg)
	c := dial(t, s, "acme")
	for i, r := range reqs {
		// Synchronous submits: this test is about the shard counters,
		// not the admission budget. The tight budget makes occasional
		// terminal infeasibility legitimate (and its deletes unknown);
		// the counters below prove the overflow path ran.
		err := c.Submit(r)
		if err != nil && !errors.Is(err, client.ErrInfeasible) && !errors.Is(err, client.ErrUnknownJob) {
			t.Fatalf("submit %d (%s): %v", i, r, err)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	rep := tenantSched.Report()
	tot := rep.Total()
	if rep.Shards[hotShard].Rerouted == 0 {
		t.Errorf("hot shard %d never rerouted an insert — skew did not bite", hotShard)
	}
	if tot.Overflow == 0 {
		t.Error("no overflow placements — the served trace never exercised the overflow path")
	}
	t.Logf("served trace: rerouted=%d overflow=%d failures=%d", tot.Rerouted, tot.Overflow, tot.Failures)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	verifySnapshot(t, snap)
}
