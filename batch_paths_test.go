// Tests for the two batch paths the layers keep: a batch that contains a
// delete runs request by request (so it must report exactly what Apply
// reports), and an insert-only batch takes the bulk path (whose costs
// and overloaded fallback are checked here; its final schedules are the
// differential harness's job).
package realloc

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/trim"
)

// TestMixedBatchEqualsPerRequest: one chunk that walks a fresh stack
// across several n* doublings and holds deletes, a duplicate insert and
// an unknown delete must return the per-request costs and errors, entry
// for entry, and land on the per-request assignment.
func TestMixedBatchEqualsPerRequest(t *testing.T) {
	var chunk []jobs.Request
	for i := 0; i < 40; i++ {
		chunk = append(chunk, jobs.InsertReq(fmt.Sprintf("j%02d", i), 0, 256))
		switch i {
		case 9:
			chunk = append(chunk, jobs.DeleteReq("j03"))
		case 19:
			chunk = append(chunk, chunk[len(chunk)-1], jobs.DeleteReq("ghost"))
		case 29:
			chunk = append(chunk, jobs.DeleteReq("j20"), jobs.InsertReq("j20", 0, 256))
		}
	}

	ref := New(WithMachines(2))
	wantCosts := make([]Cost, len(chunk))
	wantErrs := make([]string, len(chunk))
	for i, r := range chunk {
		c, err := Apply(ref, r)
		wantCosts[i], wantErrs[i] = c, fmt.Sprint(err)
	}

	s := New(WithMachines(2))
	costs, err := ApplyBatch(s, chunk)
	var be *BatchError
	if !errors.As(err, &be) || be.Failed != 2 {
		t.Fatalf("want a batch error with 2 failures, got %v", err)
	}
	for i := range chunk {
		if costs[i] != wantCosts[i] {
			t.Errorf("request %d (%s): batched cost %+v, per-request %+v", i, chunk[i], costs[i], wantCosts[i])
		}
		if got := fmt.Sprint(be.At(i)); got != wantErrs[i] {
			t.Errorf("request %d (%s): batched error %q, per-request %q", i, chunk[i], got, wantErrs[i])
		}
	}
	assertSameSchedule(t, "mixed chunk", ref, s)
}

// costSum records what the bulk calls passing through it cost in total.
type costSum struct {
	sched.Scheduler
	total metrics.Cost
}

func (c *costSum) ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error) {
	costs, err := sched.ApplyBatch(c.Scheduler, reqs)
	for _, k := range costs {
		c.total.Add(k)
	}
	return costs, err
}

// TestRestoreCountsFirstPlacements: a job the bulk path admits as
// bookkeeping ahead of the rebuild still reports its first placement, so
// restoring N jobs costs at least N reallocations, as N inserts do.
func TestRestoreCountsFirstPlacements(t *testing.T) {
	const n = 100
	js := make([]jobs.Job, n)
	for i := range js {
		js[i] = jobs.Job{Name: fmt.Sprintf("j%03d", i), Window: Win(0, 1024)}
	}
	s := &costSum{Scheduler: New(WithMachines(4))}
	left, err := sched.RestoreJobs(s, js)
	if err != nil || len(left) != 0 {
		t.Fatalf("restore left %d jobs out (%v)", len(left), err)
	}
	if s.Active() != n {
		t.Fatalf("restored %d of %d jobs", s.Active(), n)
	}
	if s.total.Reallocations < n {
		t.Errorf("restoring %d jobs reported %d reallocations, want at least one each", n, s.total.Reallocations)
	}
	if s.total.Migrations != 0 {
		t.Errorf("restoring reported %d migrations, inserts never migrate", s.total.Migrations)
	}
}

// TestInsertOnlyBatchNeverSheds drives an insert-only batch whose
// merged rebuild cannot place everyone. Every machine starts with one
// job in each of the unit windows [0,1)..[3,4); the batch then offers
// each machine a rival for every one of them, a second rival for
// [0,1), and a job for the free window [4,5). The batch's last n*
// doubling (8 to 16, on the fifth insert a machine sees) would rebuild
// the first five of them in name order, where the a-rivals take the
// slots and the z-jobs no longer fit. No batch may take back an earlier
// request's job: every z-job stays, every rival fails on its own
// request, and the a4-jobs land. On a lone trim layer the verdicts and
// the schedule are exactly those of per-request Apply.
func TestInsertOnlyBatchNeverSheds(t *testing.T) {
	trimF := func() sched.Scheduler { return trim.New(8, func() sched.Scheduler { return core.New() }) }
	variants := []struct {
		name     string
		machines int
		build    func() sched.Scheduler
	}{
		{"trim", 1, trimF},
		{"multi", 2, func() sched.Scheduler { return multi.New(2, trimF) }},
		{"full-stack", 2, func() sched.Scheduler { return New(WithMachines(2)) }},
		{"sharded", 2, func() sched.Scheduler { return NewSharded(WithMachines(2), WithShards(1)) }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			// One job per machine under each label: multi sends the i-th
			// job of a window to machine i.
			group := func(label string, slot int64) []jobs.Request {
				var out []jobs.Request
				for i := 0; i < v.machines; i++ {
					out = append(out, jobs.InsertReq(fmt.Sprintf("%s-%d", label, i), slot, slot+1))
				}
				return out
			}
			var pre, batch []jobs.Request
			for k := int64(0); k < 4; k++ {
				pre = append(pre, group(fmt.Sprintf("z%d", k), k)...)
			}
			for _, g := range []struct {
				label string
				slot  int64
			}{{"a0", 0}, {"b0", 0}, {"a1", 1}, {"a2", 2}, {"a3", 3}, {"a4", 4}} {
				batch = append(batch, group(g.label, g.slot)...)
			}

			s := v.build()
			if c, ok := s.(interface{ Close() error }); ok {
				defer c.Close()
			}
			for _, r := range pre {
				if _, err := sched.Apply(s, r); err != nil {
					t.Fatalf("pre-batch %s: %v", r, err)
				}
			}
			_, err := ApplyBatch(s, batch)
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("want a *BatchError, got %v", err)
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("self-check after the batch: %v", err)
			}
			if err := feasible.VerifySchedule(s.Jobs(), s.Assignment(), s.Machines()); err != nil {
				t.Fatalf("schedule after the batch: %v", err)
			}

			var want []string
			for _, r := range pre {
				want = append(want, r.Name)
			}
			for i, r := range batch {
				rival := r.Window.Start < 4
				if rival {
					if !errors.Is(be.At(i), ErrInfeasible) {
						t.Errorf("rival %s: error %v, want ErrInfeasible", r, be.At(i))
					}
					continue
				}
				if be.At(i) != nil {
					t.Errorf("%s failed: %v", r, be.At(i))
				}
				want = append(want, r.Name)
			}
			var got []string
			for _, j := range s.Jobs() {
				got = append(got, j.Name)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("jobs after the batch: %v\nwant every pre-batch job and the a4 jobs: %v", got, want)
			}

			if v.name != "trim" {
				return
			}
			twin := v.build()
			for _, r := range pre {
				if _, err := sched.Apply(twin, r); err != nil {
					t.Fatalf("twin pre-batch %s: %v", r, err)
				}
			}
			for i, r := range batch {
				_, e := sched.Apply(twin, r)
				if fmt.Sprint(e) != fmt.Sprint(be.At(i)) {
					t.Errorf("%s: batched error %v, per-request %v", r, be.At(i), e)
				}
			}
			assertSameSchedule(t, "trim vs per-request", twin, s)
		})
	}
}
