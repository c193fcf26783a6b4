package core

import (
	"testing"

	"repro/internal/align"
	"repro/internal/sched"
	"repro/internal/workload"
)

// scanPick is the map-walk pickFulfilledSlot that the free index
// replaced, kept as its oracle: it visits every fulfilled slot of ws,
// read off the interval tables, and applies the old choice rule to the
// job-free ones.
func scanPick(s *Scheduler, ws *windowState) (Time, bool) {
	best, bestEmpty := Time(0), false
	found := false
	ivSpan := align.IntervalSpan(ws.level)
	for start := ws.key.start; start < ws.key.start+ws.key.span; start += ivSpan {
		iv := s.intervalAt(ws.level, start)
		for i, r := range iv.slotRank {
			t := iv.start + Time(i)
			if int(r) != ws.rank {
				continue
			}
			if occ := s.occupant(t); occ != nil && occ.level <= ws.level {
				continue // an own-level job holds it
			}
			empty := s.occupant(t) == nil
			switch {
			case !found,
				empty && !bestEmpty,
				empty == bestEmpty && t < best:
				best, bestEmpty, found = t, empty, true
			}
		}
	}
	return best, found
}

// TestFreeIndexMatchesScan runs a seeded mixed-level stream (base,
// level-1 and level-2 windows) and, after every request, asks every
// materialized window for its pick: the free index must answer exactly
// what the scan answers.
func TestFreeIndexMatchesScan(t *testing.T) {
	// The case keeps the name it had when a second placement policy
	// (policy=1) was also run; policy=0 is the prefer-empty rule.
	t.Run("policy=0", func(t *testing.T) {
		g, err := workload.NewGenerator(workload.Config{Seed: 11, Gamma: 8, Horizon: 4096, Target: 200, Steps: 3000})
		if err != nil {
			t.Fatal(err)
		}
		s := New()
		compared, under := 0, 0
		for i, r := range g.Sequence() {
			if _, err := sched.Apply(s, r); err != nil {
				t.Fatalf("request %d %v: %v", i, r, err)
			}
			for _, p := range s.livePages() {
				for _, ws := range p.windows() {
					if !ws.materialized {
						continue
					}
					got, gotOK := ws.pickFulfilledSlot()
					want, wantOK := scanPick(s, ws)
					if got != want || gotOK != wantOK {
						t.Fatalf("after request %d: window %v picks %d (%v), the scan picks %d (%v)",
							i, ws.key.window(), got, gotOK, want, wantOK)
					}
					compared++
					if gotOK && s.occupant(got) != nil {
						under++
					}
				}
			}
			if i%100 == 0 {
				if err := s.SelfCheck(); err != nil {
					t.Fatalf("after request %d: %v", i, err)
				}
			}
		}
		if under == 0 {
			t.Fatalf("none of %d picks landed under a higher-level job; the stream misses that case", compared)
		}
		t.Logf("%d picks compared, %d under a higher-level job", compared, under)
	})
}
