package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// FuzzApplyBatch drives the sharded front-end's ApplyBatch with
// byte-decoded batches of mixed inserts, deletes, and pool resizes
// (mirroring internal/core's FuzzRequestStream). The fuzzer explores
// batch compositions the random workloads never produce — duplicate
// names inside one batch, insert/delete/insert chains, resizes between
// batches, infeasible bursts. After every batch the front-end must keep
// all invariants: SelfCheck passes, the snapshot is a feasible schedule
// for its job set (cross-checked against internal/feasible), and the
// per-request outcomes account exactly for the active population.
// A twin scheduler gets the same resizes and runs every batch request
// by request through Apply; both must give the same verdicts, costs and
// snapshots after every batch.
// Run with: go test -fuzz=FuzzApplyBatch ./internal/shard (CI smokes it
// under -race).
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{0x03, 0x00, 0x11, 0x01, 0x22, 0x02, 0x33})
	f.Add([]byte{0x05, 0x01, 0x02, 0x81, 0x00, 0x03, 0x04, 0xc1, 0x10, 0x05, 0x06})
	f.Add([]byte{0x0f, 0xff, 0xfe, 0xfd, 0x10, 0x90, 0x20, 0xa0, 0xc0, 0x01, 0x02, 0x03})
	// One job, then six inserts into the one-slot window [0, 1) of a
	// cluster with two slots per shard (at least one overflows) and a
	// delete of the first of them, all in one mixed batch.
	f.Add([]byte{0x00, 0x00, 0x10, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(Config{Shards: 2, Machines: 4, Factory: stackFactory})
		defer s.Close()
		twin := New(Config{Shards: 2, Machines: 4, Factory: stackFactory})
		defer twin.Close()

		live := make(map[string]bool)
		id := 0
		pos := 0
		for batchNo := 0; pos < len(data) && batchNo < 64; batchNo++ {
			size := int(data[pos]%16) + 1
			pos++
			var batch []jobs.Request
			var names []string // tentative per-request name bookkeeping
			for k := 0; k < size && pos+1 < len(data); k++ {
				op, arg := data[pos], data[pos+1]
				pos += 2
				switch {
				case op&0xc0 == 0xc0:
					// Pool resize between requests: flush nothing (the
					// resize applies before the batch), tolerate errors —
					// shrinking to zero machines is rejected, not fatal.
					delta := 1
					if op&0x20 != 0 {
						delta = -1
					}
					// Structural rejections are fine; anything else must
					// still leave the scheduler consistent, which the
					// post-batch checks verify.
					_, err := s.ResizeShard(int(arg)%s.Shards(), delta)
					_, twinErr := twin.ResizeShard(int(arg)%s.Shards(), delta)
					if (err == nil) != (twinErr == nil) {
						t.Fatalf("batch %d: resize %v, twin's %v", batchNo, err, twinErr)
					}
				case op&0x80 != 0 && len(live) > 0:
					// Delete a live-ish job: pick deterministically by
					// walking the insertion counter.
					name := fmt.Sprintf("f%05d", int(arg)%id)
					batch = append(batch, jobs.DeleteReq(name))
					names = append(names, name)
				default:
					spanExp := uint(op&0x07) % 8
					span := int64(1) << spanExp
					start := mathx.AlignDown(int64(arg)*4, span)
					name := fmt.Sprintf("f%05d", id)
					id++
					batch = append(batch, jobs.Request{
						Kind: jobs.Insert, Name: name,
						Window: jobs.Window{Start: start, End: start + span},
					})
					names = append(names, name)
				}
			}
			if len(batch) == 0 {
				continue
			}
			costs, err := s.ApplyBatch(batch)
			if len(costs) != len(batch) {
				t.Fatalf("batch %d: %d costs for %d requests", batchNo, len(costs), len(batch))
			}
			var be *sched.BatchError
			if err != nil && !errors.As(err, &be) {
				t.Fatalf("batch %d: non-batch error %v", batchNo, err)
			}
			twinCosts, twinErrs := applyTwin(twin, batch)
			for k, r := range batch {
				var e error
				if be != nil {
					e = be.At(k)
				}
				if (e == nil) != (twinErrs[k] == nil) || !sameSentinel(e, twinErrs[k]) || costs[k] != twinCosts[k] {
					t.Fatalf("batch %d request %d: %v %+v, twin's %v %+v",
						batchNo, k, e, costs[k], twinErrs[k], twinCosts[k])
				}
				if costs[k].Migrations > 1 {
					t.Fatalf("batch %d request %d: %d migrations", batchNo, k, costs[k].Migrations)
				}
				if e != nil {
					continue
				}
				if r.Kind == jobs.Insert {
					live[names[k]] = true
				} else {
					delete(live, names[k])
				}
			}

			if err := s.SelfCheck(); err != nil {
				t.Fatalf("batch %d: invariant violation: %v", batchNo, err)
			}
			snap := s.Snapshot()
			if s.Active() != len(snap.Jobs) {
				t.Fatalf("batch %d: %d jobs on shards but Active() = %d", batchNo, len(snap.Jobs), s.Active())
			}
			// Every scheduled job must be one the outcomes admitted — no
			// resurrections. The scheduler may hold FEWER jobs than the
			// outcome tracking: on non-underallocated streams a batch
			// rebuild can drop a job that no longer fits the shrunken
			// trim cap (the drop is reported on the crossing request);
			// resync the tracking to the snapshot afterwards.
			for _, j := range snap.Jobs {
				if !live[j.Name] {
					t.Fatalf("batch %d: job %q scheduled but never admitted", batchNo, j.Name)
				}
			}
			live = make(map[string]bool, len(snap.Jobs))
			for _, j := range snap.Jobs {
				live[j.Name] = true
			}
			if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
				t.Fatalf("batch %d: schedule infeasible: %v", batchNo, err)
			}
			twinSnap := twin.Snapshot()
			if len(twinSnap.Assignment) != len(snap.Assignment) {
				t.Fatalf("batch %d: %d jobs, twin holds %d", batchNo, len(snap.Assignment), len(twinSnap.Assignment))
			}
			for name, p := range snap.Assignment {
				if twinSnap.Assignment[name] != p {
					t.Fatalf("batch %d: job %q at %+v, twin's at %+v", batchNo, name, p, twinSnap.Assignment[name])
				}
			}
		}
	})
}

// applyTwin serves batch on the twin scheduler request by request
// through Apply.
func applyTwin(twin *Scheduler, batch []jobs.Request) ([]metrics.Cost, []error) {
	costs := make([]metrics.Cost, len(batch))
	errs := make([]error, len(batch))
	for k, r := range batch {
		costs[k], errs[k] = twin.Apply(r)
	}
	return costs, errs
}
