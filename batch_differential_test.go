// Differential tests for batched admission: replay identical request
// streams through ApplyBatch and per-request Apply on every stack
// variant and require the two execution modes to be observably
// equivalent — identical final assignments, feasible schedules, the
// same per-request failure verdicts, and the ≤1-migration-per-request
// bound on every reported cost.
package realloc

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/trim"
	"repro/internal/workload"
)

// batchVariants enumerates the stack layers with a bulk path. Each
// build must return a fresh deterministic scheduler.
func batchVariants() []struct {
	name     string
	build    func() sched.Scheduler
	machines int
} {
	coreF := func() sched.Scheduler { return core.New() }
	return []struct {
		name     string
		build    func() sched.Scheduler
		machines int
	}{
		{"core", coreF, 1},
		{"trim", func() sched.Scheduler { return trim.New(8, coreF) }, 1},
		{"multi", func() sched.Scheduler { return multi.New(3, coreF) }, 3},
		{"full-stack", func() sched.Scheduler { return New(WithMachines(4)) }, 4},
	}
}

// applyAll is the per-request reference executor: it applies every
// request in order, collecting the per-request errors without stopping.
func applyAll(s sched.Scheduler, reqs []jobs.Request) []error {
	errs := make([]error, len(reqs))
	for i, r := range reqs {
		_, errs[i] = sched.Apply(s, r)
	}
	return errs
}

// applyChunked drives the batch path in chunks of size b, asserting the
// migration bound on every reported cost, and returns per-request errors.
func applyChunked(t *testing.T, s sched.Scheduler, reqs []jobs.Request, b int) []error {
	t.Helper()
	errs := make([]error, len(reqs))
	for off := 0; off < len(reqs); off += b {
		end := off + b
		if end > len(reqs) {
			end = len(reqs)
		}
		costs, err := sched.ApplyBatch(s, reqs[off:end])
		for k, c := range costs {
			if c.Migrations > 1 {
				t.Fatalf("request %d reported %d migrations, bound is 1", off+k, c.Migrations)
			}
		}
		if err != nil {
			var be *sched.BatchError
			if !errors.As(err, &be) {
				t.Fatalf("ApplyBatch returned a non-batch error: %v", err)
			}
			for k := range costs {
				errs[off+k] = be.At(k)
			}
		}
	}
	return errs
}

func assertSameSchedule(t *testing.T, label string, ref, got sched.Scheduler) {
	t.Helper()
	refAsn, gotAsn := ref.Assignment(), got.Assignment()
	if len(refAsn) != len(gotAsn) {
		t.Fatalf("%s: %d jobs batched vs %d sequential", label, len(gotAsn), len(refAsn))
	}
	for name, p := range refAsn {
		if gotAsn[name] != p {
			t.Fatalf("%s: job %q placed at %+v batched vs %+v sequential", label, name, gotAsn[name], p)
		}
	}
	if err := got.SelfCheck(); err != nil {
		t.Fatalf("%s: batched self-check: %v", label, err)
	}
	if err := feasible.VerifySchedule(got.Jobs(), gotAsn, got.Machines()); err != nil {
		t.Fatalf("%s: batched schedule infeasible: %v", label, err)
	}
}

// TestBatchDifferentialCleanStreams: on γ-underallocated streams (no
// request fails) the batch path must land on the exact same schedule as
// per-request execution, for every chunk size.
func TestBatchDifferentialCleanStreams(t *testing.T) {
	for _, v := range batchVariants() {
		t.Run(v.name, func(t *testing.T) {
			g, err := workload.NewGenerator(workload.Config{
				Seed: 41, Machines: v.machines, Gamma: 8, Horizon: 2048, Steps: 600,
			})
			if err != nil {
				t.Fatal(err)
			}
			seq := g.Sequence()

			ref := v.build()
			for i, e := range applyAll(ref, seq) {
				if e != nil {
					t.Fatalf("reference request %d failed on a clean stream: %v", i, e)
				}
			}
			for _, b := range []int{1, 7, 64, 256} {
				s := v.build()
				for i, e := range applyChunked(t, s, seq, b) {
					if e != nil {
						t.Fatalf("batch=%d request %d failed on a clean stream: %v", b, i, e)
					}
				}
				assertSameSchedule(t, fmt.Sprintf("%s batch=%d", v.name, b), ref, s)
			}
		})
	}
}

// TestBatchDifferentialDirtyStreams: streams salted with duplicate
// inserts and unknown deletes must produce the same per-request
// verdicts (failure or success, same sentinel) and the same final
// schedule in both modes — a statically rejected request never mutates
// state.
func TestBatchDifferentialDirtyStreams(t *testing.T) {
	for _, v := range batchVariants() {
		t.Run(v.name, func(t *testing.T) {
			g, err := workload.NewGenerator(workload.Config{
				Seed: 43, Machines: v.machines, Gamma: 8, Horizon: 2048, Steps: 300,
			})
			if err != nil {
				t.Fatal(err)
			}
			var seq []jobs.Request
			for i, r := range g.Sequence() {
				seq = append(seq, r)
				switch {
				case i%11 == 3 && r.Kind == jobs.Insert:
					seq = append(seq, r) // immediate duplicate
				case i%13 == 5:
					seq = append(seq, jobs.DeleteReq(fmt.Sprintf("ghost-%d", i)))
				case i%17 == 7 && r.Kind == jobs.Insert:
					// delete straight after its insert, then re-insert
					seq = append(seq, jobs.DeleteReq(r.Name),
						jobs.InsertReq(r.Name, r.Window.Start, r.Window.End))
				}
			}

			ref := v.build()
			refErrs := applyAll(ref, seq)
			for _, b := range []int{1, 7, 64} {
				s := v.build()
				gotErrs := applyChunked(t, s, seq, b)
				for i := range seq {
					if (refErrs[i] == nil) != (gotErrs[i] == nil) {
						t.Fatalf("batch=%d request %d (%s): sequential err %v, batched err %v",
							b, i, seq[i], refErrs[i], gotErrs[i])
					}
					if refErrs[i] != nil && !sameSentinel(refErrs[i], gotErrs[i]) {
						t.Fatalf("batch=%d request %d (%s): sentinel mismatch: %v vs %v",
							b, i, seq[i], refErrs[i], gotErrs[i])
					}
				}
				assertSameSchedule(t, fmt.Sprintf("%s dirty batch=%d", v.name, b), ref, s)
			}
		})
	}
}

func sameSentinel(a, b error) bool {
	for _, sentinel := range []error{sched.ErrDuplicateJob, sched.ErrUnknownJob, sched.ErrInfeasible, sched.ErrMisaligned} {
		if errors.Is(a, sentinel) {
			return errors.Is(b, sentinel)
		}
	}
	return true // both failed with non-sentinel errors: accept
}

// TestBatchDifferentialSharded replays one stream through the sharded
// front-end's Apply and ApplyBatch from a single goroutine. Every chunk
// runs request by request, so the final snapshots must agree exactly.
func TestBatchDifferentialSharded(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 47, Machines: 8, Gamma: 8, Horizon: 4096, Steps: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := g.Sequence()

	ref := NewSharded(WithMachines(8), WithShards(4))
	defer ref.Close()
	for i, r := range seq {
		if _, err := ref.Apply(r); err != nil {
			t.Fatalf("reference request %d failed: %v", i, err)
		}
	}
	refSnap := ref.Snapshot()

	for _, b := range []int{1, 16, 128, 1200} {
		s := NewSharded(WithMachines(8), WithShards(4))
		for off := 0; off < len(seq); off += b {
			end := off + b
			if end > len(seq) {
				end = len(seq)
			}
			costs, err := s.ApplyBatch(seq[off:end])
			if err != nil {
				t.Fatalf("batch=%d chunk at %d failed: %v", b, off, err)
			}
			for k, c := range costs {
				if c.Migrations > 1 {
					t.Fatalf("batch=%d request %d reported %d migrations", b, off+k, c.Migrations)
				}
			}
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("batch=%d self-check: %v", b, err)
		}
		snap := s.Snapshot()
		if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
			t.Fatalf("batch=%d infeasible: %v", b, err)
		}
		if len(snap.Assignment) != len(refSnap.Assignment) {
			t.Fatalf("batch=%d: %d jobs vs %d sequential", b, len(snap.Assignment), len(refSnap.Assignment))
		}
		for name, p := range refSnap.Assignment {
			if snap.Assignment[name] != p {
				t.Fatalf("batch=%d: job %q at %+v vs sequential %+v", b, name, snap.Assignment[name], p)
			}
		}
		s.Close()
	}
}

// TestBatchDifferentialShardedDirty salts the sharded stream with the
// patterns the per-request path resolves through the routing table —
// duplicate inserts, ghost deletes, and delete→re-insert and
// insert→delete→re-insert chains on one name (which may hop shards) —
// and requires the same per-request verdicts and the same final
// snapshot in both modes.
func TestBatchDifferentialShardedDirty(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 53, Machines: 8, Gamma: 8, Horizon: 4096, Steps: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	var seq []jobs.Request
	for i, r := range g.Sequence() {
		seq = append(seq, r)
		switch {
		case i%11 == 3 && r.Kind == jobs.Insert:
			seq = append(seq, r) // immediate duplicate
		case i%13 == 5:
			seq = append(seq, jobs.DeleteReq(fmt.Sprintf("ghost-%d", i)))
		case i%7 == 2 && r.Kind == jobs.Insert:
			// delete straight after its insert, then re-insert: a
			// chain on one name inside one batch.
			seq = append(seq, jobs.DeleteReq(r.Name),
				jobs.InsertReq(r.Name, r.Window.Start, r.Window.End))
		}
	}

	ref := NewSharded(WithMachines(8), WithShards(4))
	defer ref.Close()
	refErrs := make([]error, len(seq))
	for i, r := range seq {
		_, refErrs[i] = ref.Apply(r)
	}
	refSnap := ref.Snapshot()

	for _, b := range []int{1, 7, 64, 500} {
		s := NewSharded(WithMachines(8), WithShards(4))
		gotErrs := make([]error, len(seq))
		for off := 0; off < len(seq); off += b {
			end := off + b
			if end > len(seq) {
				end = len(seq)
			}
			_, err := s.ApplyBatch(seq[off:end])
			if err != nil {
				var be *sched.BatchError
				if !errors.As(err, &be) {
					t.Fatalf("batch=%d: non-batch error %v", b, err)
				}
				for k := end - off - 1; k >= 0; k-- {
					gotErrs[off+k] = be.At(k)
				}
			}
		}
		for i := range seq {
			if (refErrs[i] == nil) != (gotErrs[i] == nil) {
				t.Fatalf("batch=%d request %d (%s): sequential err %v, batched err %v",
					b, i, seq[i], refErrs[i], gotErrs[i])
			}
			if refErrs[i] != nil && !sameSentinel(refErrs[i], gotErrs[i]) {
				t.Fatalf("batch=%d request %d (%s): sentinel mismatch: %v vs %v",
					b, i, seq[i], refErrs[i], gotErrs[i])
			}
		}
		if err := s.SelfCheck(); err != nil {
			t.Fatalf("batch=%d self-check: %v", b, err)
		}
		snap := s.Snapshot()
		if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
			t.Fatalf("batch=%d infeasible: %v", b, err)
		}
		if len(snap.Assignment) != len(refSnap.Assignment) {
			t.Fatalf("batch=%d: %d jobs vs %d sequential", b, len(snap.Assignment), len(refSnap.Assignment))
		}
		for name, p := range refSnap.Assignment {
			if snap.Assignment[name] != p {
				t.Fatalf("batch=%d: job %q at %+v vs sequential %+v", b, name, snap.Assignment[name], p)
			}
		}
		s.Close()
	}
}

// TestBatchDifferentialBurstWaves runs the Burst scenario — the batch
// path's target workload — through the full stack in both modes.
func TestBatchDifferentialBurstWaves(t *testing.T) {
	cfg := workload.BurstConfig{Seed: 3, Machines: 4, Horizon: 1024, Waves: 3}
	reqs, err := workload.Burst(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(WithMachines(4))
	for i, e := range applyAll(ref, reqs) {
		if e != nil {
			t.Fatalf("reference request %d failed: %v", i, e)
		}
	}
	s := New(WithMachines(4))
	for i, e := range applyChunked(t, s, reqs, 128) {
		if e != nil {
			t.Fatalf("batched request %d failed: %v", i, e)
		}
	}
	assertSameSchedule(t, "burst", ref, s)
}

// TestBatchDifferentialTraceReplay runs the cluster-trace-shaped
// scenario (diurnal curve, Pareto tails) through every stack variant
// in both modes. Generation is γ-underallocated per variant, so no
// request may fail and the schedules must agree exactly.
func TestBatchDifferentialTraceReplay(t *testing.T) {
	for _, v := range batchVariants() {
		t.Run(v.name, func(t *testing.T) {
			reqs, err := workload.TraceReplay(workload.TraceConfig{
				Seed: 59, Machines: v.machines, Gamma: 8, Horizon: 2048, Steps: 800,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := v.build()
			for i, e := range applyAll(ref, reqs) {
				if e != nil {
					t.Fatalf("reference request %d failed on a clean trace: %v", i, e)
				}
			}
			for _, b := range []int{1, 32, 256} {
				s := v.build()
				for i, e := range applyChunked(t, s, reqs, b) {
					if e != nil {
						t.Fatalf("batch=%d request %d failed on a clean trace: %v", b, i, e)
					}
				}
				assertSameSchedule(t, fmt.Sprintf("%s trace batch=%d", v.name, b), ref, s)
			}
		})
	}
}

// TestBatchDifferentialAdversarial runs the trim-threshold walk — the
// rebuild-storm worst case — through every stack variant in both
// modes. The storm maximizes resize churn, so this is the directed
// check that batching never diverges from per-request execution in the
// middle of a rebuild.
func TestBatchDifferentialAdversarial(t *testing.T) {
	for _, v := range batchVariants() {
		t.Run(v.name, func(t *testing.T) {
			reqs, err := workload.Adversarial(workload.AdversarialConfig{
				Seed: 61, Machines: v.machines, Gamma: 8, Horizon: 1024, Cycles: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			ref := v.build()
			for i, e := range applyAll(ref, reqs) {
				if e != nil {
					t.Fatalf("reference request %d failed on a clean storm: %v", i, e)
				}
			}
			for _, b := range []int{1, 32, 256} {
				s := v.build()
				for i, e := range applyChunked(t, s, reqs, b) {
					if e != nil {
						t.Fatalf("batch=%d request %d failed on a clean storm: %v", b, i, e)
					}
				}
				assertSameSchedule(t, fmt.Sprintf("%s adversarial batch=%d", v.name, b), ref, s)
			}
		})
	}
}

// overloadedStream is a seeded insert-only stream that is far from
// γ-underallocated: aligned windows of span 1 to 8 crowded into a
// 32-slot horizon, three jobs per machine slot on offer. Names are a
// random permutation, so a rebuild's name order mixes earlier jobs
// with later ones.
func overloadedStream(seed int64, machines int) []jobs.Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]jobs.Request, 96*machines)
	names := rng.Perm(len(reqs))
	for i := range reqs {
		span := int64(1) << rng.Intn(4)
		start := span * rng.Int63n(32/span)
		reqs[i] = jobs.InsertReq(fmt.Sprintf("o%04d", names[i]), start, start+span)
	}
	return reqs
}

// keptEveryJob fails unless every job of before is still active in s.
func keptEveryJob(t *testing.T, label string, before []jobs.Job, s sched.Scheduler) {
	t.Helper()
	active := make(map[string]bool)
	for _, j := range s.Jobs() {
		active[j.Name] = true
	}
	for _, j := range before {
		if !active[j.Name] {
			t.Fatalf("%s: insert-only chunk removed earlier job %q", label, j.Name)
		}
	}
}

// TestBatchDifferentialOverloaded: on a job set that is not
// underallocated, many inserts fail and a merged rebuild may not place
// everyone. An insert-only chunk must still never remove a job an
// earlier request admitted, on any stack, and on a lone trim layer it
// must return exactly the per-request verdicts and schedule.
func TestBatchDifferentialOverloaded(t *testing.T) {
	for _, v := range batchVariants() {
		t.Run(v.name, func(t *testing.T) {
			seq := overloadedStream(67, v.machines)
			ref := v.build()
			refErrs := applyAll(ref, seq)
			for _, b := range []int{7, 64} {
				label := fmt.Sprintf("%s overloaded batch=%d", v.name, b)
				s := v.build()
				gotErrs := make([]error, len(seq))
				for off := 0; off < len(seq); off += b {
					end := min(off+b, len(seq))
					before := s.Jobs()
					copy(gotErrs[off:end], applyChunked(t, s, seq[off:end], b))
					keptEveryJob(t, fmt.Sprintf("%s chunk at %d", label, off), before, s)
				}
				if v.name == "core" {
					// A bare core is poisoned by its first rejected
					// insert; recovering it is the layers' job above.
					continue
				}
				if err := s.SelfCheck(); err != nil {
					t.Fatalf("%s: self-check: %v", label, err)
				}
				if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), s.Machines()); err != nil {
					t.Fatalf("%s: infeasible: %v", label, err)
				}
				if v.name != "trim" {
					continue
				}
				for i := range seq {
					if fmt.Sprint(refErrs[i]) != fmt.Sprint(gotErrs[i]) {
						t.Fatalf("%s request %d (%s): sequential err %v, batched err %v",
							label, i, seq[i], refErrs[i], gotErrs[i])
					}
				}
				assertSameSchedule(t, label, ref, s)
			}
		})
	}
	t.Run("sharded", func(t *testing.T) {
		seq := overloadedStream(71, 4)
		for _, b := range []int{7, 64} {
			label := fmt.Sprintf("sharded overloaded batch=%d", b)
			s := NewSharded(WithMachines(4), WithShards(2))
			for off := 0; off < len(seq); off += b {
				end := min(off+b, len(seq))
				before := s.Jobs()
				if _, err := s.ApplyBatch(seq[off:end]); err != nil {
					var be *sched.BatchError
					if !errors.As(err, &be) {
						t.Fatalf("%s: non-batch error %v", label, err)
					}
				}
				keptEveryJob(t, fmt.Sprintf("%s chunk at %d", label, off), before, s)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("%s: self-check: %v", label, err)
			}
			snap := s.Snapshot()
			if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
				t.Fatalf("%s: infeasible: %v", label, err)
			}
			s.Close()
		}
	})
}
