// Package metrics records per-request reallocation and migration costs
// and aggregates them into the summary statistics the experiment harness
// reports: totals, maxima, means and percentiles.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Cost is the cost of serving a single request, in the paper's two
// currencies.
type Cost struct {
	// Reallocations is the number of jobs whose (machine, slot)
	// assignment changed while serving the request, including the
	// initial placement of a newly inserted job.
	Reallocations int
	// Migrations is the number of jobs whose machine changed.
	Migrations int
}

// Add accumulates o into c.
func (c *Cost) Add(o Cost) {
	c.Reallocations += o.Reallocations
	c.Migrations += o.Migrations
}

// Recorder accumulates the per-request cost series of one run.
type Recorder struct {
	costs []Cost
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// Record appends the cost of one request.
func (r *Recorder) Record(c Cost) {
	r.costs = append(r.costs, c)
}

// Len returns the number of recorded requests.
func (r *Recorder) Len() int { return len(r.costs) }

// Costs returns the raw cost series (not a copy; callers must not mutate).
func (r *Recorder) Costs() []Cost { return r.costs }

// Summary computes aggregates over the recorded series.
func (r *Recorder) Summary() Summary {
	s := Summary{Requests: len(r.costs)}
	if len(r.costs) == 0 {
		return s
	}
	reallocs := make([]int, len(r.costs))
	for i, c := range r.costs {
		reallocs[i] = c.Reallocations
		s.TotalReallocations += c.Reallocations
		s.TotalMigrations += c.Migrations
		if c.Reallocations > s.MaxReallocations {
			s.MaxReallocations = c.Reallocations
		}
		if c.Migrations > s.MaxMigrations {
			s.MaxMigrations = c.Migrations
		}
	}
	s.MeanReallocations = float64(s.TotalReallocations) / float64(s.Requests)
	s.MeanMigrations = float64(s.TotalMigrations) / float64(s.Requests)
	sort.Ints(reallocs)
	s.P50Reallocations = percentile(reallocs, 0.50)
	s.P99Reallocations = percentile(reallocs, 0.99)
	return s
}

// percentile returns the p-th percentile of a sorted int slice using the
// nearest-rank method.
func percentile(sorted []int, p float64) int {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Summary aggregates a cost series.
type Summary struct {
	Requests           int
	TotalReallocations int
	TotalMigrations    int
	MaxReallocations   int
	MaxMigrations      int
	MeanReallocations  float64
	MeanMigrations     float64
	P50Reallocations   int
	P99Reallocations   int
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf(
		"reqs=%d realloc{total=%d max=%d mean=%.3f p50=%d p99=%d} migr{total=%d max=%d mean=%.3f}",
		s.Requests, s.TotalReallocations, s.MaxReallocations, s.MeanReallocations,
		s.P50Reallocations, s.P99Reallocations,
		s.TotalMigrations, s.MaxMigrations, s.MeanMigrations)
}
