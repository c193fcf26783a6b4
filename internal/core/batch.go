package core

import (
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
)

var _ sched.BatchScheduler = (*Scheduler)(nil)

// ApplyBatch serves the requests one at a time. The reservation
// machinery is sequential, so there is nothing for the core to
// amortize; the method exists because the benchmark's decorator table
// (bench/trace.go) expects the core to show sched.BatchScheduler.
func (s *Scheduler) ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error) {
	return sched.ApplyEach(s, reqs)
}
