package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/align"
)

// LevelStats summarizes one reservation level's state.
type LevelStats struct {
	Level      int
	Jobs       int // active jobs whose span falls in this level
	Windows    int // window states (including x=0 bookkeeping windows)
	Intervals  int // materialized intervals
	Fulfilled  int // fulfilled reservations across the level's intervals
	Waitlisted int // waitlisted reservations across the level's intervals
}

// LevelBreakdown reports per-level statistics, the view used to reason
// about where reallocation work happens (base level excluded from the
// reservation counters, since it has none).
func (s *Scheduler) LevelBreakdown() []LevelStats {
	out := make([]LevelStats, align.NumLevels)
	for l := range out {
		out[l].Level = l
	}
	for _, j := range s.byID {
		if j != nil {
			out[j.level].Jobs++
		}
	}
	for _, ws := range s.windows {
		out[ws.level].Windows++
	}
	for key, iv := range s.ivs {
		out[key.level].Intervals++
		for _, e := range iv.ranks {
			out[key.level].Fulfilled += e.fulfilled
			out[key.level].Waitlisted += e.reserved - e.fulfilled
		}
	}
	return out
}

// DebugDump writes a human-readable rendering of the complete internal
// state: every window's jobs and fulfilled slots, every interval's
// allowance and reservation table. Intended for debugging failing
// sequences found by the stress shrinker.
func (s *Scheduler) DebugDump(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "core scheduler: %d jobs, %d windows, %d intervals\n",
		s.active, len(s.windows), len(s.ivs)); err != nil {
		return err
	}
	if s.poisoned != nil {
		if _, err := fmt.Fprintf(w, "POISONED: %v\n", s.poisoned); err != nil {
			return err
		}
	}

	// Jobs sorted by slot.
	js := make([]*jobState, 0, s.active)
	for _, j := range s.byID {
		if j != nil {
			js = append(js, j)
		}
	}
	sort.Slice(js, func(i, k int) bool { return js[i].slot < js[k].slot })
	for _, j := range js {
		if _, err := fmt.Fprintf(w, "  job %-12s level %d window %-18v slot %d\n",
			j.name, j.level, j.window(), j.slot); err != nil {
			return err
		}
	}

	// Windows with activity, sorted by (level, start, span), each with
	// the slots its intervals assign it.
	fulfilledOf := make(map[*windowState][]Time)
	for _, iv := range s.ivs {
		for i, r := range iv.slotRank {
			if r >= 0 {
				ws := iv.ranks[r].ws
				fulfilledOf[ws] = append(fulfilledOf[ws], iv.start+Time(i))
			}
		}
	}
	keys := make([]winKey, 0, len(s.windows))
	for key, ws := range s.windows {
		if ws.x > 0 || ws.nFulfilled > 0 {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, k int) bool {
		a, b := keys[i], keys[k]
		if a.span != b.span {
			return a.span < b.span
		}
		return a.start < b.start
	})
	for _, key := range keys {
		ws := s.windows[key]
		slots := fulfilledOf[ws]
		sort.Slice(slots, func(i, k int) bool { return slots[i] < slots[k] })
		if _, err := fmt.Fprintf(w, "  window %-18v level %d x=%d fulfilled=%d:",
			key.window(), ws.level, ws.x, len(slots)); err != nil {
			return err
		}
		for _, t := range slots {
			occ := "-"
			if j := s.slots[t]; j != nil && j.ws == ws {
				occ = j.name
			}
			if _, err := fmt.Fprintf(w, " %d(%s)", t, occ); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}

	// Intervals sorted by (level, start).
	ivKeys := make([]ivKey, 0, len(s.ivs))
	for key := range s.ivs {
		ivKeys = append(ivKeys, key)
	}
	sort.Slice(ivKeys, func(i, k int) bool {
		if ivKeys[i].level != ivKeys[k].level {
			return ivKeys[i].level < ivKeys[k].level
		}
		return ivKeys[i].start < ivKeys[k].start
	})
	for _, key := range ivKeys {
		iv := s.ivs[key]
		capacity := 0
		for t := iv.start; t < iv.start+iv.span; t++ {
			if occ := s.slots[t]; occ == nil || occ.level >= iv.level {
				capacity++
			}
		}
		if _, err := fmt.Fprintf(w, "  interval L%d [%d,%d) allowance=%d assigned=%d reservations=%d\n",
			iv.level, iv.start, iv.start+iv.span, capacity, iv.nAssigned, totalRes(iv)); err != nil {
			return err
		}
	}
	return nil
}

func totalRes(iv *interval) int {
	n := 0
	for _, e := range iv.ranks {
		n += e.reserved
	}
	return n
}
