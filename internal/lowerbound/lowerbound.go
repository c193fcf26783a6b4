// Package lowerbound implements the paper's adversarial constructions:
//
//   - Lemma 11: on m > 1 machines, any deterministic scheduler pays
//     Ω(s) migrations over s requests (subsequences of 6m requests force
//     m/2 migrations each). The adversary is adaptive: it inspects the
//     current assignment to decide which jobs to delete.
//   - Lemma 12: without underallocation, s requests can force Ω(s²)
//     total reallocations (a chain of span-2 windows toggled between its
//     two perfect matchings).
//   - The EDF brittleness cascade motivating Section 4: staggered
//     deadlines inside one huge window make EDF shift Θ(n) jobs per
//     urgent insert even though the instance is 16-underallocated.
//
// Costs are measured scheduler-agnostically by diffing assignments
// around each request, so the same sequences price any sched.Scheduler.
package lowerbound

import (
	"fmt"
	"sort"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// MeasureDiffCosts replays the request sequence, measuring each request's
// cost as the number of already-present jobs whose placement changed
// (plus one for a new job's initial placement), and the migration cost as
// the number whose machine changed. This prices schedulers that do not
// report costs themselves and cross-validates those that do.
func MeasureDiffCosts(s sched.Scheduler, reqs []jobs.Request) (*metrics.Recorder, error) {
	rec := metrics.NewRecorder()
	before := s.Assignment()
	for i, r := range reqs {
		if _, err := sched.Apply(s, r); err != nil {
			return rec, fmt.Errorf("request %d (%s): %w", i, r, err)
		}
		after := s.Assignment()
		moved, migrated := before.Diff(after)
		if r.Kind == jobs.Insert {
			moved++ // initial placement of the new job
		}
		rec.Record(metrics.Cost{Reallocations: moved, Migrations: migrated})
		before = after
	}
	return rec, nil
}

// Lemma11Result reports the outcome of the adaptive migration adversary.
type Lemma11Result struct {
	Rounds          int
	Requests        int
	TotalMigrations int
	// PaperLowerBound is s/12 where s is the number of requests issued.
	PaperLowerBound int
}

// RunLemma11 drives the scheduler through `rounds` of the Lemma 11
// adversary on its m machines (m must be even and >= 2):
//
//  1. insert 2m span-2 jobs with window [0, 2)
//  2. delete the m jobs currently scheduled on the first m/2 machines
//     (re-reading the assignment after every delete, since the scheduler
//     may rebalance)
//  3. insert m span-1 jobs with window [0, 1)
//  4. delete all remaining jobs
//
// Migrations are measured by assignment diff around every request.
func RunLemma11(s sched.Scheduler, rounds int) (Lemma11Result, error) {
	m := s.Machines()
	if m < 2 || m%2 != 0 {
		return Lemma11Result{}, fmt.Errorf("lowerbound: Lemma 11 needs an even machine count >= 2, got %d", m)
	}
	res := Lemma11Result{Rounds: rounds}
	id := 0
	apply := func(r jobs.Request) error {
		before := s.Assignment()
		if _, err := sched.Apply(s, r); err != nil {
			return fmt.Errorf("lemma11 request %d (%s): %w", res.Requests, r, err)
		}
		_, migrated := before.Diff(s.Assignment())
		res.TotalMigrations += migrated
		res.Requests++
		return nil
	}

	for round := 0; round < rounds; round++ {
		// Step 1: 2m span-2 jobs.
		var span2 []string
		for i := 0; i < 2*m; i++ {
			name := fmt.Sprintf("L11r%dw%d", round, id)
			id++
			if err := apply(jobs.InsertReq(name, 0, 2)); err != nil {
				return res, err
			}
			span2 = append(span2, name)
		}
		// Step 2: delete m jobs from the lowest-indexed loaded machines.
		for k := 0; k < m; k++ {
			victim, err := jobOnLowestMachine(s, span2)
			if err != nil {
				return res, err
			}
			if err := apply(jobs.DeleteReq(victim)); err != nil {
				return res, err
			}
			span2 = remove(span2, victim)
		}
		// Step 3: m span-1 jobs.
		var span1 []string
		for i := 0; i < m; i++ {
			name := fmt.Sprintf("L11r%du%d", round, id)
			id++
			if err := apply(jobs.InsertReq(name, 0, 1)); err != nil {
				return res, err
			}
			span1 = append(span1, name)
		}
		// Step 4: delete everything.
		for _, name := range append(append([]string{}, span2...), span1...) {
			if err := apply(jobs.DeleteReq(name)); err != nil {
				return res, err
			}
		}
		span2, span1 = nil, nil
	}
	res.PaperLowerBound = res.Requests / 12
	return res, nil
}

// jobOnLowestMachine returns the candidate job assigned to the
// lowest-indexed machine (ties broken by name).
func jobOnLowestMachine(s sched.Scheduler, candidates []string) (string, error) {
	asn := s.Assignment()
	best, bestMachine := "", -1
	sorted := append([]string{}, candidates...)
	sort.Strings(sorted)
	for _, name := range sorted {
		p, ok := asn[name]
		if !ok {
			return "", fmt.Errorf("lowerbound: candidate %q missing from assignment", name)
		}
		if bestMachine == -1 || p.Machine < bestMachine {
			best, bestMachine = name, p.Machine
		}
	}
	if best == "" {
		return "", fmt.Errorf("lowerbound: no candidates left")
	}
	return best, nil
}

func remove(list []string, name string) []string {
	for i, v := range list {
		if v == name {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Lemma12Sequence builds the quadratic-reallocation adversary: eta chain
// jobs where job j has window [j, j+2), followed by `cycles` toggles.
// Each toggle inserts a job with window [0, 1) (forcing the whole chain
// right), deletes it, inserts a job with window [eta, eta+1) (forcing
// the chain left), and deletes it. The chain is fully subscribed — the
// antithesis of underallocation — so any scheduler moves Θ(eta) jobs per
// toggle, Θ(s²) in total (Lemma 12).
func Lemma12Sequence(eta, cycles int) []jobs.Request {
	if eta < 1 {
		panic(fmt.Sprintf("lowerbound: eta %d < 1", eta))
	}
	var reqs []jobs.Request
	for j := 0; j < eta; j++ {
		reqs = append(reqs, jobs.InsertReq(fmt.Sprintf("chain%05d", j), int64(j), int64(j)+2))
	}
	for c := 0; c < cycles; c++ {
		left := fmt.Sprintf("left%05d", c)
		right := fmt.Sprintf("right%05d", c)
		reqs = append(reqs,
			jobs.InsertReq(left, 0, 1),
			jobs.DeleteReq(left),
			jobs.InsertReq(right, int64(eta), int64(eta)+1),
			jobs.DeleteReq(right),
		)
	}
	return reqs
}

// FrontInsertSequence builds the EDF brittleness workload: n jobs with
// windows [0, 16n + i) for i = 0..n-1 (staggered deadlines, all sharing
// the huge slack window), then `probes` cycles of inserting and deleting
// an urgent job with window [0, 1). The instance stays 16-underallocated
// throughout, yet EDF shifts Θ(n) jobs on every probe; the reservation
// scheduler pays O(1).
func FrontInsertSequence(n, probes int) []jobs.Request {
	if n < 1 {
		panic(fmt.Sprintf("lowerbound: n %d < 1", n))
	}
	var reqs []jobs.Request
	base := int64(16 * n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, jobs.InsertReq(fmt.Sprintf("stag%05d", i), 0, base+int64(i)))
	}
	for p := 0; p < probes; p++ {
		name := fmt.Sprintf("urgent%04d", p)
		reqs = append(reqs, jobs.InsertReq(name, 0, 1), jobs.DeleteReq(name))
	}
	return reqs
}
