package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/align"
	"repro/internal/ident"
)

// SelfCheck revalidates every structural invariant of the scheduler:
// schedule feasibility, Invariant 5's round-robin reservation counts,
// allowance consistency, fulfillment priority (shortest windows first),
// and the agreement between window-side and interval-side bookkeeping.
// It is O(total state) and intended for tests.
func (s *Scheduler) SelfCheck() error {
	if s.poisoned != nil {
		return s.poisoned
	}
	return s.selfCheck()
}

// Poisoned implements sched.Poisoner: the sticky failure a mid-request
// insert error leaves behind, or nil while the scheduler is usable.
// Wrappers use it to tell a clean rejection from a broken scheduler.
func (s *Scheduler) Poisoned() error { return s.poisoned }

func (s *Scheduler) selfCheck() error {
	// Jobs <-> slots agreement; every job inside its window.
	if s.active != len(s.slots) {
		return fmt.Errorf("core: %d jobs but %d occupied slots", s.active, len(s.slots))
	}
	if got := s.names.Len(); got != s.active {
		return fmt.Errorf("core: %d interned names but %d active jobs", got, s.active)
	}
	for id, j := range s.byID {
		if j == nil {
			continue
		}
		if j.id != ident.ID(id) {
			return fmt.Errorf("core: job %q (ID %d) indexed under ID %d", j.name, j.id, id)
		}
		if got := s.names.Name(j.id); got != j.name {
			return fmt.Errorf("core: job ID %d interned as %q but carries name %q", j.id, got, j.name)
		}
		if !j.window().Contains(j.slot) {
			return fmt.Errorf("core: job %q at slot %d outside window %v", j.name, j.slot, j.window())
		}
		if s.slots[j.slot] != j {
			return fmt.Errorf("core: slot map for %d does not point at job %q", j.slot, j.name)
		}
		if got := align.LevelOfSpan(j.key.span); got != j.level {
			return fmt.Errorf("core: job %q cached level %d, want %d", j.name, j.level, got)
		}
		// Level >= 1 jobs must sit in a fulfilled slot of their window,
		// whose state they cache.
		if j.level >= 1 {
			ws := s.windows[j.key]
			if ws == nil {
				return fmt.Errorf("core: job %q has no window state", j.name)
			}
			if j.ws != ws {
				return fmt.Errorf("core: job %q caches a stale window state", j.name)
			}
			if iv := s.ivs[s.intervalKeyAt(j.level, j.slot)]; iv == nil || int(iv.slotRank[j.slot-iv.start]) != ws.rank {
				return fmt.Errorf("core: job %q at slot %d not backed by a fulfilled reservation of window %v",
					j.name, j.slot, j.window())
			}
		}
	}

	// Intervals: every cached table entry is recounted from scratch.
	fulfilledOf := make(map[*windowState][]Time)
	for key, iv := range s.ivs {
		if iv.level != key.level || iv.start != key.start {
			return fmt.Errorf("core: interval (%d,%d) indexed under %+v", iv.level, iv.start, key)
		}
		if iv.span != align.IntervalSpan(iv.level) || len(iv.slotRank) != int(iv.span) {
			return fmt.Errorf("core: interval at %d has span %d and %d slot entries", iv.start, iv.span, len(iv.slotRank))
		}
		// Rank r holds the one enclosing window of the r-th level span.
		spans := align.SpansAtLevel(iv.level)
		if len(iv.ranks) != len(spans) {
			return fmt.Errorf("core: interval %d has %d ranks, level %d has %d spans", iv.start, len(iv.ranks), iv.level, len(spans))
		}
		for r, e := range iv.ranks {
			want := keyOf(align.EnclosingAligned(iv.start, spans[r]))
			if e.ws == nil || e.ws.key != want || e.ws.rank != r || s.windows[want] != e.ws {
				return fmt.Errorf("core: interval %d rank %d does not hold window %v", iv.start, r, want.window())
			}
		}
		// Recount the slot table: assignments stay inside the allowance;
		// each is filed under its window for the window checks below.
		capacity, assigned := 0, 0
		fulfilled := make([]int, len(iv.ranks))
		for i, r := range iv.slotRank {
			t := iv.start + Time(i)
			if occ := s.slots[t]; occ != nil && occ.level < iv.level {
				if r >= 0 {
					return fmt.Errorf("core: interval %d slot %d assigned but outside allowance", iv.start, t)
				}
				continue
			}
			capacity++
			if r < 0 {
				continue
			}
			if int(r) >= len(iv.ranks) {
				return fmt.Errorf("core: interval %d slot %d assigned to rank %d of %d", iv.start, t, r, len(iv.ranks))
			}
			ws := iv.ranks[r].ws
			fulfilledOf[ws] = append(fulfilledOf[ws], t)
			fulfilled[r]++
			assigned++
		}
		if assigned != iv.nAssigned {
			return fmt.Errorf("core: interval %d caches %d assigned slots, recount %d", iv.start, iv.nAssigned, assigned)
		}
		var waitMask, fullMask uint64
		for r, e := range iv.ranks {
			if e.fulfilled != fulfilled[r] {
				return fmt.Errorf("core: interval %d caches %d fulfilled for %v, recount %d",
					iv.start, e.fulfilled, e.ws.key.window(), fulfilled[r])
			}
			if e.fulfilled > e.reserved {
				return fmt.Errorf("core: interval %d window %v fulfills %d of %d reservations",
					iv.start, e.ws.key.window(), e.fulfilled, e.reserved)
			}
			if e.reserved > e.fulfilled {
				waitMask |= 1 << uint(r)
			}
			if e.fulfilled > 0 {
				fullMask |= 1 << uint(r)
			}
			// Reservation counts: base 1 per enclosing span, plus the
			// round-robin share of 2x extras (Invariant 5).
			idx := (iv.start - e.ws.key.start) / iv.span
			want := 1 + extraShare(int64(e.ws.x), idx, e.ws.numIntervals)
			if e.ws.materialized && e.reserved != want {
				return fmt.Errorf("core: interval %d window %v has %d reservations, Invariant 5 wants %d (x=%d idx=%d)",
					iv.start, e.ws.key.window(), e.reserved, want, e.ws.x, idx)
			}
		}
		if waitMask != iv.waitMask || fullMask != iv.fullMask {
			return fmt.Errorf("core: interval %d caches masks wait=%#x full=%#x, recount wait=%#x full=%#x",
				iv.start, iv.waitMask, iv.fullMask, waitMask, fullMask)
		}
		// Fulfillment priority: no waitlisted window may be shorter than a
		// fulfilled one, and free allowance slots imply an empty waitlist.
		if waitMask != 0 && fullMask != 0 && bits.TrailingZeros64(waitMask) < 63-bits.LeadingZeros64(fullMask) {
			return fmt.Errorf("core: interval %d waitlists rank %d while fulfilling rank %d",
				iv.start, bits.TrailingZeros64(waitMask), 63-bits.LeadingZeros64(fullMask))
		}
		if capacity > assigned && waitMask != 0 {
			return fmt.Errorf("core: interval %d has %d free slots but a waitlisted rank %d",
				iv.start, capacity-assigned, bits.TrailingZeros64(waitMask))
		}
	}

	// Window states: job counts, fulfilled counts, and each materialized
	// window's free index against the slots the intervals assign it.
	xCount := make(map[winKey]int)
	for _, j := range s.byID {
		if j != nil && j.level >= 1 {
			xCount[j.key]++
		}
	}
	for key, ws := range s.windows {
		if ws.key != key {
			return fmt.Errorf("core: window %v indexed under %v", ws.key.window(), key.window())
		}
		if ws.x != xCount[key] {
			return fmt.Errorf("core: window %v records x=%d but %d active jobs", key.window(), ws.x, xCount[key])
		}
		if ws.x > 0 && !ws.materialized {
			return fmt.Errorf("core: window %v has jobs but is not materialized", key.window())
		}
		w := key.window()
		slots := fulfilledOf[ws]
		if ws.nFulfilled != len(slots) {
			return fmt.Errorf("core: window %v counts %d fulfilled reservations, its intervals assign %d",
				w, ws.nFulfilled, len(slots))
		}
		// The free index must equal one rebuilt from the slot tables, word
		// for word, summaries included.
		var want [2]bitIndex
		if ws.materialized {
			want[freeEmpty].reset(int(key.span))
			want[freeUnder].reset(int(key.span))
		}
		for _, t := range slots {
			if !w.Contains(t) {
				return fmt.Errorf("core: window %v fulfilled slot %d outside window", w, t)
			}
			switch occ := s.slots[t]; {
			case occ == nil:
				want[freeEmpty].add(int(t - w.Start))
			case occ.level > ws.level:
				want[freeUnder].add(int(t - w.Start))
			case occ.key != key:
				return fmt.Errorf("core: window %v slot %d holds foreign level-%d job %q", w, t, occ.level, occ.name)
			case !ws.materialized:
				return fmt.Errorf("core: window %v was never materialized but slot %d holds its job %q", w, t, occ.name)
			}
		}
		for kind := range want {
			if ws.materialized && !slices.Equal(ws.free[kind].buf, want[kind].buf) {
				return fmt.Errorf("core: window %v free index %d disagrees with its fulfilled slots", w, kind)
			}
		}
	}
	return nil
}

// extraShare is window W's round-robin share of its 2x job reservations
// at interval index idx (Invariant 5): floor(2x/N) plus one for the first
// (2x mod N) intervals.
func extraShare(x, idx, n int64) int {
	extras := 2 * x
	share := extras / n
	if idx < extras%n {
		share++
	}
	return int(share)
}

// MinLemma8Slack returns the minimum over materialized windows of
// (fulfilled reservations − x), the quantity Lemma 8 lower-bounds by 1
// under 8-underallocation. A return of 1 means some window is at the
// boundary; 0 or less means the invariant's conclusion is violated
// (possible only on under-slack instances). Returns a large sentinel
// when no window is materialized.
func (s *Scheduler) MinLemma8Slack() int {
	min := 1 << 30
	for _, ws := range s.windows {
		if !ws.materialized {
			continue
		}
		if slack := ws.nFulfilled - ws.x; slack < min {
			min = slack
		}
	}
	return min
}

// VerifyLemma8 checks the guarantee of Lemma 8: every materialized window
// with x active jobs holds at least x+1 fulfilled reservations. This only
// holds when the request sequence is 8-underallocated, so it is a
// separate check from SelfCheck.
func (s *Scheduler) VerifyLemma8() error {
	for key, ws := range s.windows {
		if !ws.materialized {
			continue
		}
		if ws.nFulfilled < ws.x+1 {
			return fmt.Errorf("core: window %v has x=%d jobs but only %d fulfilled reservations (Lemma 8 wants >= %d)",
				key.window(), ws.x, ws.nFulfilled, ws.x+1)
		}
	}
	return nil
}

// ReservationState summarizes which reservations an interval fulfills for
// one window: Observation 7 says this is history independent.
type ReservationState struct {
	Level       int
	Interval    Time
	WindowStart Time
	WindowSpan  int64
	Fulfilled   int
	Waitlisted  int
}

// ReservationSnapshot returns the fulfilled/waitlisted reservation counts
// of every (interval, window) pair for windows that currently have at
// least one active job, sorted deterministically. Two schedulers holding
// the same active job multiset must produce identical snapshots
// regardless of the request history (Observation 7).
func (s *Scheduler) ReservationSnapshot() []ReservationState {
	var out []ReservationState
	for key, iv := range s.ivs {
		for _, e := range iv.ranks {
			if e.ws.x == 0 {
				continue
			}
			out = append(out, ReservationState{
				Level:       key.level,
				Interval:    iv.start,
				WindowStart: e.ws.key.start,
				WindowSpan:  e.ws.key.span,
				Fulfilled:   e.fulfilled,
				Waitlisted:  e.reserved - e.fulfilled,
			})
		}
	}
	sort.Slice(out, func(i, k int) bool {
		a, b := out[i], out[k]
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		if a.Interval != b.Interval {
			return a.Interval < b.Interval
		}
		if a.WindowSpan != b.WindowSpan {
			return a.WindowSpan < b.WindowSpan
		}
		return a.WindowStart < b.WindowStart
	})
	return out
}

// Stats reports coarse internal statistics, useful in examples and
// benchmarks.
type Stats struct {
	ActiveJobs int
	Windows    int
	Intervals  int
	SlotsInUse int
}

// Stats returns current internal statistics.
func (s *Scheduler) Stats() Stats {
	return Stats{
		ActiveJobs: s.active,
		Windows:    len(s.windows),
		Intervals:  len(s.ivs),
		SlotsInUse: len(s.slots),
	}
}
