// Excluded under -race: the race runtime inserts its own allocations and
// drops sync.Pool entries at random.
//
//go:build !race

package core

import (
	"runtime/debug"
	"testing"
)

// TestRecycledRebuildAllocatesNothing inserts tableJobs into a recycled
// scheduler again and again: the pages, intervals, windows (free indexes
// included) and job states of the last generation cover the next one.
func TestRecycledRebuildAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep schedPool's entry
	set := tableJobs("g", true)
	failed := 0
	allocs := testing.AllocsPerRun(5, func() {
		s := New()
		for _, j := range set {
			if _, err := s.Insert(j); err != nil {
				failed++
			}
		}
		s.Recycle()
	})
	if failed > 0 {
		t.Fatalf("%d inserts failed", failed)
	}
	if allocs != 0 {
		t.Fatalf("a recycled generation allocates %v times, want 0", allocs)
	}
}
