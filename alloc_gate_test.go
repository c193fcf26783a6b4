// Allocation gates: pin the hot paths the interned-ID refactor made
// allocation-free, so a regression that reintroduces per-request heap
// traffic fails CI instead of quietly eroding throughput.
//
// "Steady state" means the scheduler has reached its high-water marks:
// interned IDs recycle through the free list, jobState structs recycle
// through the spare pool, and the internal maps have stopped growing.
// The gates churn one job against a warmed-up background population and
// require ZERO allocations per insert+delete pair.
//
// Excluded under -race: the race runtime inserts its own allocations.

//go:build !race

package realloc

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/jobs"
)

// gateZero runs fn under testing.AllocsPerRun and fails on any
// allocation.
func gateZero(t *testing.T, what string, fn func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, fn); avg > 0 {
		t.Errorf("%s allocates %.2f allocs/op in steady state, want 0", what, avg)
	}
}

// TestAllocGateCoreInsertDelete pins the reservation core's
// insert+delete hit path at zero steady-state allocations, for both the
// base level (span <= 32, pecking-order displacement) and a
// reservation level (span > 32, RESERVE/PLACE machinery).
func TestAllocGateCoreInsertDelete(t *testing.T) {
	for _, span := range []int64{16, 64, 1024} {
		t.Run(fmt.Sprintf("span=%d", span), func(t *testing.T) {
			s := core.New(core.WithMaxIntervals(1 << 24))
			// Background population in disjoint windows, plus warmup churn
			// so every map, the ID table, and the jobState pool reach
			// their high-water marks.
			for i := int64(0); i < 32; i++ {
				j := jobs.Job{Name: fmt.Sprintf("bg%d", i),
					Window: jobs.Window{Start: i * span, End: (i + 1) * span}}
				if _, err := s.Insert(j); err != nil {
					t.Fatal(err)
				}
			}
			churn := jobs.Job{Name: "churn", Window: jobs.Window{Start: 0, End: span}}
			for i := 0; i < 64; i++ {
				if _, err := s.Insert(churn); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Delete(churn.Name); err != nil {
					t.Fatal(err)
				}
			}
			gateZero(t, "core insert+delete", func() {
				if _, err := s.Insert(churn); err != nil {
					t.Fatal(err)
				}
				if _, err := s.Delete(churn.Name); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
