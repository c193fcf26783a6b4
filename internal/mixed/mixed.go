// Package mixed implements the substrate for the paper's Observation 13:
// scheduling with two job sizes, 1 and k. A size-k job occupies k
// consecutive timeslots; in the paper's construction its window has span
// exactly k, so its position is forced. Observation 13 shows that any
// reallocation scheduler on such instances pays Ω(kn) aggregate
// reallocations over Θ(n) requests, even with arbitrarily large constant
// underallocation — which is why the paper (and this repository's core
// scheduler) restricts to unit jobs.
//
// The scheduler here is a simple greedy relocator: placing the size-k job
// evicts every unit job under its footprint to the lowest free slot in
// that job's window. Since the adversary forces the evictions no matter
// how cleverly a scheduler places jobs, the greedy relocator suffices to
// demonstrate the measured lower bound.
package mixed

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/metrics"
)

// Scheduler schedules unit jobs plus at most one size-k job on a single
// machine.
type Scheduler struct {
	units   map[string]*unitJob
	slots   map[jobs.Time]string // slot -> unit job name
	big     *bigJob
	horizon int64
}

type unitJob struct {
	name   string
	window jobs.Window
	slot   jobs.Time
}

type bigJob struct {
	name  string
	start jobs.Time
	size  int64
}

// New returns an empty mixed-size scheduler over [0, horizon).
func New(horizon int64) *Scheduler {
	if horizon < 1 {
		panic(fmt.Sprintf("mixed: horizon %d < 1", horizon))
	}
	return &Scheduler{
		units:   make(map[string]*unitJob),
		slots:   make(map[jobs.Time]string),
		horizon: horizon,
	}
}

// coveredByBig reports whether slot t lies under the size-k job.
func (s *Scheduler) coveredByBig(t jobs.Time) bool {
	return s.big != nil && t >= s.big.start && t < s.big.start+s.big.size
}

// InsertUnit adds a unit job, placing it at the lowest free slot in its
// window.
func (s *Scheduler) InsertUnit(name string, w jobs.Window) (metrics.Cost, error) {
	if err := w.Validate(); err != nil {
		return metrics.Cost{}, err
	}
	if _, dup := s.units[name]; dup {
		return metrics.Cost{}, fmt.Errorf("mixed: unit job %q already active", name)
	}
	slot, ok := s.freeSlot(w)
	if !ok {
		return metrics.Cost{}, fmt.Errorf("mixed: no free slot for unit job %q in %v", name, w)
	}
	u := &unitJob{name: name, window: w, slot: slot}
	s.units[name] = u
	s.slots[slot] = name
	return metrics.Cost{Reallocations: 1}, nil
}

// InsertBig places the size-k job at exactly [start, start+size),
// relocating every unit job under its footprint.
func (s *Scheduler) InsertBig(name string, start jobs.Time, size int64) (metrics.Cost, error) {
	if s.big != nil {
		return metrics.Cost{}, fmt.Errorf("mixed: big job %q already active", s.big.name)
	}
	if start < 0 || start+size > s.horizon || size < 1 {
		return metrics.Cost{}, fmt.Errorf("mixed: big job [%d,%d) outside horizon %d", start, start+size, s.horizon)
	}
	s.big = &bigJob{name: name, start: start, size: size}
	cost := metrics.Cost{Reallocations: 1} // the big job's own placement
	// Evict unit jobs under the footprint.
	for t := start; t < start+size; t++ {
		uname, occupied := s.slots[t]
		if !occupied {
			continue
		}
		u := s.units[uname]
		slot, ok := s.freeSlot(u.window)
		if !ok {
			s.big = nil
			return cost, fmt.Errorf("mixed: cannot relocate unit job %q (instance too tight)", uname)
		}
		delete(s.slots, t)
		u.slot = slot
		s.slots[slot] = uname
		cost.Reallocations++
	}
	return cost, nil
}

// DeleteBig removes the size-k job.
func (s *Scheduler) DeleteBig(name string) (metrics.Cost, error) {
	if s.big == nil || s.big.name != name {
		return metrics.Cost{}, fmt.Errorf("mixed: big job %q not active", name)
	}
	s.big = nil
	return metrics.Cost{}, nil
}

// freeSlot returns the lowest slot in w that is neither occupied by a
// unit job nor covered by the big job.
func (s *Scheduler) freeSlot(w jobs.Window) (jobs.Time, bool) {
	for t := w.Start; t < w.End && t < s.horizon; t++ {
		if _, occupied := s.slots[t]; occupied {
			continue
		}
		if s.coveredByBig(t) {
			continue
		}
		return t, true
	}
	return 0, false
}

// SelfCheck validates the schedule: unit jobs inside their windows, no
// collisions, nothing under the big job.
func (s *Scheduler) SelfCheck() error {
	if len(s.slots) != len(s.units) {
		return fmt.Errorf("mixed: %d slots for %d unit jobs", len(s.slots), len(s.units))
	}
	for name, u := range s.units {
		if !u.window.Contains(u.slot) {
			return fmt.Errorf("mixed: unit %q at %d outside %v", name, u.slot, u.window)
		}
		if s.slots[u.slot] != name {
			return fmt.Errorf("mixed: slot map for %d inconsistent", u.slot)
		}
		if s.coveredByBig(u.slot) {
			return fmt.Errorf("mixed: unit %q under the big job at %d", name, u.slot)
		}
	}
	return nil
}

// Observation13Result reports the measured aggregate cost of the
// adversary.
type Observation13Result struct {
	K            int64 // size of the big job
	Gamma        int64 // slack factor of the construction
	Sweeps       int   // outer repetitions (the paper's n)
	Requests     int
	TotalCost    int
	MinSweepCost int // min over sweeps of the cost paid in that sweep
	// PaperLowerBound is k per sweep: each of the k unit jobs must be
	// rescheduled at least once per sweep of 2γ toggles.
	PaperLowerBound int
}

// RunObservation13 executes the paper's Observation 13 adversary: a
// horizon of 2γk slots, k unit jobs with window [0, 2γk), and one size-k
// job whose span-k window slides across positions 0, k, 2k, ..., then
// repeats for `sweeps` rounds. It returns the measured aggregate
// reallocation cost, which must be Ω(k · sweeps) for any scheduler.
func RunObservation13(k, gamma int64, sweeps int) (Observation13Result, error) {
	if k < 1 || gamma < 1 || sweeps < 1 {
		return Observation13Result{}, fmt.Errorf("mixed: bad parameters k=%d gamma=%d sweeps=%d", k, gamma, sweeps)
	}
	horizon := 2 * gamma * k
	s := New(horizon)
	res := Observation13Result{K: k, Gamma: gamma, Sweeps: sweeps, PaperLowerBound: int(k)}

	// k unit jobs, full-horizon windows.
	for i := int64(0); i < k; i++ {
		c, err := s.InsertUnit(fmt.Sprintf("u%04d", i), jobs.Window{Start: 0, End: horizon})
		if err != nil {
			return res, err
		}
		res.TotalCost += c.Reallocations
		res.Requests++
	}
	// The big job starts at position 0.
	c, err := s.InsertBig("p", 0, k)
	if err != nil {
		return res, err
	}
	res.TotalCost += c.Reallocations
	res.Requests++

	res.MinSweepCost = 1 << 30
	for sweep := 0; sweep < sweeps; sweep++ {
		sweepCost := 0
		// Slide p across all 2γ positions: delete, reinsert shifted.
		for pos := int64(1); pos < 2*gamma; pos++ {
			if _, err := s.DeleteBig("p"); err != nil {
				return res, err
			}
			res.Requests++
			c, err := s.InsertBig("p", pos*k, k)
			if err != nil {
				return res, err
			}
			sweepCost += c.Reallocations
			res.TotalCost += c.Reallocations
			res.Requests++
			if err := s.SelfCheck(); err != nil {
				return res, err
			}
		}
		// Wrap around to position 0 for the next sweep.
		if _, err := s.DeleteBig("p"); err != nil {
			return res, err
		}
		res.Requests++
		c, err := s.InsertBig("p", 0, k)
		if err != nil {
			return res, err
		}
		sweepCost += c.Reallocations
		res.TotalCost += c.Reallocations
		res.Requests++
		if sweepCost < res.MinSweepCost {
			res.MinSweepCost = sweepCost
		}
	}
	return res, nil
}
