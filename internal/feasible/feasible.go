// Package feasible provides feasibility and underallocation checkers for
// sets of unit-length jobs with windows, plus an exact offline EDF
// scheduler.
//
// For unit jobs on m identical machines, a set J is feasible iff for every
// time interval [s, t) the number of jobs whose windows are contained in
// [s, t) is at most m*(t-s) (Hall's condition), and earliest-deadline-first
// produces a feasible schedule whenever one exists.
//
// γ-underallocation (the paper's slack notion) means the set stays
// feasible when every job's processing time is scaled to γ. For unit jobs
// this package checks it two ways:
//
//   - Exactly, by expanding each job to γ copies ... that is NOT
//     equivalent (a γ-length job needs γ *consecutive* slots). Instead we
//     check the counting condition the paper actually uses (Lemma 2): for
//     every critical interval [s, t), γ * (#jobs inside) <= m*(t-s). For
//     recursively aligned instances this condition is exactly what the
//     paper's inductive argument needs, and it is the definition our
//     workload generators satisfy by construction.
package feasible

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/jobs"
)

// EDF computes a feasible schedule for the given unit jobs on m machines
// using earliest-deadline-first, or returns ok=false if none exists.
// The returned assignment maps job name -> (machine, slot). Ties are
// broken deterministically by (deadline, window start, name).
func EDF(js []jobs.Job, m int) (jobs.Assignment, bool) {
	if m <= 0 {
		panic(fmt.Sprintf("feasible: EDF with %d machines", m))
	}
	sorted := make([]jobs.Job, len(js))
	copy(sorted, js)
	sort.Slice(sorted, func(i, k int) bool {
		a, b := sorted[i], sorted[k]
		if a.Window.Start != b.Window.Start {
			return a.Window.Start < b.Window.Start
		}
		if a.Window.End != b.Window.End {
			return a.Window.End < b.Window.End
		}
		return a.Name < b.Name
	})

	out := make(jobs.Assignment, len(js))
	h := &jobHeap{}
	i := 0
	var t jobs.Time
	for i < len(sorted) || h.Len() > 0 {
		if h.Len() == 0 {
			// Jump to the next arrival.
			t = sorted[i].Window.Start
		}
		// Admit everything that has arrived by t.
		for i < len(sorted) && sorted[i].Window.Start <= t {
			heap.Push(h, sorted[i])
			i++
		}
		// Schedule up to m earliest-deadline jobs in slot t.
		for k := 0; k < m && h.Len() > 0; k++ {
			j := heap.Pop(h).(jobs.Job)
			if j.Window.End <= t {
				return nil, false // deadline already passed: infeasible
			}
			out[j.Name] = jobs.Placement{Machine: k, Slot: t}
		}
		t++
	}
	return out, true
}

// IsFeasible reports whether the job set admits any feasible schedule on
// m machines.
func IsFeasible(js []jobs.Job, m int) bool {
	_, ok := EDF(js, m)
	return ok
}

// VerifySchedule checks that the assignment is a feasible schedule for
// exactly the given job set: every job placed inside its window, machine
// indices in [0, m), and no two jobs sharing a machine-slot.
func VerifySchedule(js []jobs.Job, a jobs.Assignment, m int) error {
	if len(a) != len(js) {
		return fmt.Errorf("feasible: schedule has %d placements for %d jobs", len(a), len(js))
	}
	used := make(map[jobs.Placement]string, len(a))
	for _, j := range js {
		p, ok := a[j.Name]
		if !ok {
			return fmt.Errorf("feasible: job %q missing from schedule", j.Name)
		}
		if p.Machine < 0 || p.Machine >= m {
			return fmt.Errorf("feasible: job %q on machine %d of %d", j.Name, p.Machine, m)
		}
		if !j.Window.Contains(p.Slot) {
			return fmt.Errorf("feasible: job %q at slot %d outside window %v", j.Name, p.Slot, j.Window)
		}
		if prev, clash := used[p]; clash {
			return fmt.Errorf("feasible: jobs %q and %q share machine %d slot %d",
				prev, j.Name, p.Machine, p.Slot)
		}
		used[p] = j.Name
	}
	return nil
}

// Underallocated reports whether the job set satisfies the paper's
// counting form of γ-underallocation on m machines: for every critical
// interval [s, t) (s an arrival, t a deadline), the jobs with windows
// inside [s, t) satisfy γ * count <= m * (t - s).
//
// This is necessary for γ-underallocation, and for the recursively
// aligned workloads used throughout this repository it is also the
// sufficient condition the paper's inductive arguments rely on (Lemma 2
// and the proof of Lemma 3).
func Underallocated(js []jobs.Job, m int, gamma int64) bool {
	if gamma < 1 {
		panic(fmt.Sprintf("feasible: gamma %d < 1", gamma))
	}
	if len(js) == 0 {
		return true
	}
	starts := make([]jobs.Time, 0, len(js))
	ends := make([]jobs.Time, 0, len(js))
	for _, j := range js {
		starts = append(starts, j.Window.Start)
		ends = append(ends, j.Window.End)
	}
	dedupSort(&starts)
	dedupSort(&ends)

	// For each critical pair (s, t) count jobs with s <= Start and
	// End <= t. O(|starts|*|ends| + n log n) via sorted sweep: for each s,
	// consider jobs with Start >= s sorted by End, and prefix-count.
	type win struct{ s, e jobs.Time }
	ws := make([]win, len(js))
	for i, j := range js {
		ws[i] = win{j.Window.Start, j.Window.End}
	}
	sort.Slice(ws, func(i, k int) bool { return ws[i].s > ws[k].s }) // descending start

	// endsCount is a Fenwick-free approach: walk starts descending,
	// inserting window ends into a sorted multiset; for each deadline t,
	// count ends <= t among inserted windows.
	inserted := make([]jobs.Time, 0, len(ws))
	wi := 0
	for si := len(starts) - 1; si >= 0; si-- {
		s := starts[si]
		for wi < len(ws) && ws[wi].s >= s {
			insertSorted(&inserted, ws[wi].e)
			wi++
		}
		for _, t := range ends {
			if t <= s {
				continue
			}
			count := int64(upperBound(inserted, t))
			if gamma*count > int64(m)*(t-s) {
				return false
			}
		}
	}
	return true
}

func dedupSort(v *[]jobs.Time) {
	s := *v
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	out := s[:0]
	for i, x := range s {
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	*v = out
}

func insertSorted(v *[]jobs.Time, x jobs.Time) {
	s := *v
	i := sort.Search(len(s), func(k int) bool { return s[k] >= x })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = x
	*v = s
}

// upperBound returns the number of elements <= x in sorted slice s.
func upperBound(s []jobs.Time, x jobs.Time) int {
	return sort.Search(len(s), func(k int) bool { return s[k] > x })
}

// jobHeap is a min-heap of jobs ordered by (deadline, start, name).
type jobHeap []jobs.Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	a, b := h[i], h[k]
	if a.Window.End != b.Window.End {
		return a.Window.End < b.Window.End
	}
	if a.Window.Start != b.Window.Start {
		return a.Window.Start < b.Window.Start
	}
	return a.Name < b.Name
}
func (h jobHeap) Swap(i, k int)       { h[i], h[k] = h[k], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(jobs.Job)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
