package main

import (
	"fmt"
	"sort"

	"repro/internal/feasible"
	"repro/internal/jobs"
)

// checkSchedule is the output check every workload ends with: the
// schedule is feasible by the external verifier, and the active jobs are
// exactly the ones the request stream implies.
func checkSchedule(js []jobs.Job, asn jobs.Assignment, machines int, want []jobs.Job) error {
	if err := feasible.VerifySchedule(js, asn, machines); err != nil {
		return fmt.Errorf("infeasible schedule: %w", err)
	}
	return sameJobs(js, want)
}

// sameJobs compares two job sets by name and window.
func sameJobs(got, want []jobs.Job) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d active jobs, want %d", len(got), len(want))
	}
	g, w := sortedJobs(got), sortedJobs(want)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("active job %d is %v, want %v", i, g[i], w[i])
		}
	}
	return nil
}

func sortedJobs(js []jobs.Job) []jobs.Job {
	s := append([]jobs.Job(nil), js...)
	sort.Slice(s, func(i, k int) bool { return s[i].Name < s[k].Name })
	return s
}

// samePlacements compares two assignments placement by placement.
func samePlacements(got, want jobs.Assignment) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d placements, want %d", len(got), len(want))
	}
	for name, p := range want {
		if g, ok := got[name]; !ok || g != p {
			return fmt.Errorf("job %q placed at %v (present %v), want %v", name, g, ok, p)
		}
	}
	return nil
}
