// Package sized explores the paper's first open question (Section 7):
// reallocation scheduling when job sizes are integers up to k rather
// than 1. Observation 13 shows any such scheduler pays Ω(k) per request
// in the worst case, so the goal is a matching O(k) upper bound.
//
// This package implements a block-aligned greedy reallocating scheduler
// for power-of-two job sizes: a size-s job occupies an s-aligned block
// of s consecutive slots inside its (aligned) window, buddy-allocator
// style. Insertion prefers a free block; failing that it evicts the
// strictly smaller jobs under one candidate block and relocates each of
// them to free slots — at most s evictions, each relocated in one move,
// for O(s) <= O(k) reallocations per request. The sized experiment (E12)
// measures this against Observation 13's Ω(k) lower bound: upper and
// lower bounds meet, answering the open question for the power-of-two,
// greedy-relocatable regime (the general integer-size case remains
// open).
package sized

import (
	"fmt"
	"sort"

	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/metrics"
)

// Job is a job of power-of-two size with an aligned window.
type Job struct {
	Name   string
	Size   int64 // power of two, >= 1
	Window jobs.Window
}

// Validate reports whether the job is well-formed: size a power of two,
// window aligned with span >= size.
func (j Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("sized: empty name")
	}
	if !mathx.IsPow2(j.Size) {
		return fmt.Errorf("sized: size %d not a power of two", j.Size)
	}
	if err := j.Window.Validate(); err != nil {
		return err
	}
	if !j.Window.IsAligned() {
		return fmt.Errorf("sized: window %v not aligned", j.Window)
	}
	if j.Window.Span() < j.Size {
		return fmt.Errorf("sized: window %v too small for size %d", j.Window, j.Size)
	}
	return nil
}

type placed struct {
	job   Job
	block jobs.Time // start of the occupied size-aligned block
}

// Scheduler is the block-aligned greedy sized-job scheduler.
type Scheduler struct {
	jobs  map[string]*placed
	slots map[jobs.Time]*placed // every covered slot -> job
}

// New returns an empty sized-job scheduler.
func New() *Scheduler {
	return &Scheduler{
		jobs:  make(map[string]*placed),
		slots: make(map[jobs.Time]*placed),
	}
}

// Insert places the job, evicting strictly smaller jobs from one
// candidate block if necessary. Cost is 1 + the number of relocated
// smaller jobs (each <= size/1, so O(size) total).
func (s *Scheduler) Insert(j Job) (metrics.Cost, error) {
	if err := j.Validate(); err != nil {
		return metrics.Cost{}, err
	}
	if _, dup := s.jobs[j.Name]; dup {
		return metrics.Cost{}, fmt.Errorf("sized: job %q already active", j.Name)
	}
	// Pass 1: a completely free aligned block.
	if b, ok := s.findBlock(j, false); ok {
		s.occupy(&placed{job: j, block: b})
		return metrics.Cost{Reallocations: 1}, nil
	}
	// Pass 2: a block whose occupants are all strictly smaller; evict and
	// relocate each of them into free space.
	b, ok := s.findBlock(j, true)
	if !ok {
		return metrics.Cost{}, fmt.Errorf("sized: no block for %q (size %d) in %v", j.Name, j.Size, j.Window)
	}
	victims := s.occupants(b, j.Size)
	oldBlocks := make([]jobs.Time, len(victims))
	for i, v := range victims {
		oldBlocks[i] = v.block
		s.vacate(v)
	}
	self := &placed{job: j, block: b}
	s.occupy(self)
	cost := metrics.Cost{Reallocations: 1}
	for i, v := range victims {
		nb, ok := s.findBlock(v.job, false)
		if !ok {
			// Roll back so a failed insert leaves the schedule untouched.
			for k := 0; k < i; k++ {
				s.vacate(victims[k])
			}
			s.vacate(self)
			for k, w := range victims {
				w.block = oldBlocks[k]
				s.occupy(w)
			}
			return metrics.Cost{}, fmt.Errorf("sized: cannot relocate evicted %q (instance too tight)", v.job.Name)
		}
		v.block = nb
		s.occupy(v)
		cost.Reallocations++
	}
	return cost, nil
}

// Delete removes an active job.
func (s *Scheduler) Delete(name string) (metrics.Cost, error) {
	p, ok := s.jobs[name]
	if !ok {
		return metrics.Cost{}, fmt.Errorf("sized: unknown job %q", name)
	}
	s.vacate(p)
	return metrics.Cost{}, nil
}

// findBlock scans the size-aligned candidate blocks of j's window. With
// evictable=false it returns the first fully free block; with
// evictable=true, the first block whose occupants are all strictly
// smaller than j (choosing the block with the fewest occupied slots).
func (s *Scheduler) findBlock(j Job, evictable bool) (jobs.Time, bool) {
	bestBlock, bestOccupied := jobs.Time(0), int64(1)<<62
	found := false
	for b := mathx.AlignUp(j.Window.Start, j.Size); b+j.Size <= j.Window.End; b += j.Size {
		occupied := int64(0)
		ok := true
		for t := b; t < b+j.Size; t++ {
			p, taken := s.slots[t]
			if !taken {
				continue
			}
			occupied++
			if !evictable || p.job.Size >= j.Size {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if !evictable {
			if occupied == 0 {
				return b, true
			}
			continue
		}
		if occupied < bestOccupied {
			bestBlock, bestOccupied, found = b, occupied, true
		}
	}
	return bestBlock, found
}

// occupants returns the distinct jobs covering [b, b+size), sorted by
// block for determinism.
func (s *Scheduler) occupants(b jobs.Time, size int64) []*placed {
	seen := map[string]*placed{}
	for t := b; t < b+size; t++ {
		if p, ok := s.slots[t]; ok {
			seen[p.job.Name] = p
		}
	}
	out := make([]*placed, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].block < out[k].block })
	return out
}

func (s *Scheduler) occupy(p *placed) {
	for t := p.block; t < p.block+p.job.Size; t++ {
		if prev, taken := s.slots[t]; taken {
			panic(fmt.Sprintf("sized: slot %d already held by %q", t, prev.job.Name))
		}
		s.slots[t] = p
	}
	s.jobs[p.job.Name] = p
}

func (s *Scheduler) vacate(p *placed) {
	for t := p.block; t < p.block+p.job.Size; t++ {
		delete(s.slots, t)
	}
	delete(s.jobs, p.job.Name)
}

// SelfCheck validates block alignment, window containment, and slot
// coverage.
func (s *Scheduler) SelfCheck() error {
	covered := 0
	for name, p := range s.jobs {
		if p.block%p.job.Size != 0 {
			return fmt.Errorf("sized: %q block %d not %d-aligned", name, p.block, p.job.Size)
		}
		if p.block < p.job.Window.Start || p.block+p.job.Size > p.job.Window.End {
			return fmt.Errorf("sized: %q block [%d,%d) outside window %v",
				name, p.block, p.block+p.job.Size, p.job.Window)
		}
		for t := p.block; t < p.block+p.job.Size; t++ {
			if s.slots[t] != p {
				return fmt.Errorf("sized: slot %d of %q not registered", t, name)
			}
			covered++
		}
	}
	if covered != len(s.slots) {
		return fmt.Errorf("sized: %d covered slots but %d registered", covered, len(s.slots))
	}
	return nil
}

// SlideResult reports the measured cost of the generalized
// Observation 13 workload served by this scheduler.
type SlideResult struct {
	K            int64
	Sweeps       int
	Requests     int
	TotalCost    int
	MaxSlideCost int // worst single slide (upper bound check: O(k))
	MinSweepCost int // per-sweep lower bound check: Ω(k)
}

// RunSlide measures the sliding size-k workload: k unit jobs with a full
// window, one size-k job sliding across 2γ positions per sweep. The
// per-slide cost must be O(k) (this scheduler's guarantee) and the
// per-sweep cost Ω(k) (Observation 13) — matching bounds.
func RunSlide(k, gamma int64, sweeps int) (SlideResult, error) {
	if !mathx.IsPow2(k) || gamma < 1 || sweeps < 1 {
		return SlideResult{}, fmt.Errorf("sized: bad parameters k=%d gamma=%d sweeps=%d", k, gamma, sweeps)
	}
	horizon := mathx.CeilPow2(2 * gamma * k)
	window := jobs.Window{Start: 0, End: horizon}
	s := New()
	res := SlideResult{K: k, Sweeps: sweeps}

	for i := int64(0); i < k; i++ {
		c, err := s.Insert(Job{Name: fmt.Sprintf("u%04d", i), Size: 1, Window: window})
		if err != nil {
			return res, err
		}
		res.TotalCost += c.Reallocations
		res.Requests++
	}
	positions := horizon / k
	res.MinSweepCost = 1 << 30
	for sweep := 0; sweep < sweeps; sweep++ {
		sweepCost := 0
		for pos := int64(0); pos < positions; pos++ {
			if sweep > 0 || pos > 0 {
				if _, err := s.Delete("p"); err != nil {
					return res, err
				}
				res.Requests++
			}
			// Pin the big job to exactly [pos*k, (pos+1)*k) via a
			// window of span k.
			c, err := s.Insert(Job{Name: "p", Size: k,
				Window: jobs.Window{Start: pos * k, End: (pos + 1) * k}})
			if err != nil {
				return res, err
			}
			res.Requests++
			sweepCost += c.Reallocations
			res.TotalCost += c.Reallocations
			if c.Reallocations > res.MaxSlideCost {
				res.MaxSlideCost = c.Reallocations
			}
			if err := s.SelfCheck(); err != nil {
				return res, err
			}
		}
		if sweepCost < res.MinSweepCost {
			res.MinSweepCost = sweepCost
		}
	}
	return res, nil
}
