package core

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/align"
	"repro/internal/ident"
	"repro/internal/mathx"
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
	if got := s.names.Len(); got != s.active {
		return fmt.Errorf("core: %d interned names but %d active jobs", got, s.active)
	}
	// Directory: every live page filed under its own key, and no other.
	if len(s.dir) != s.nPages {
		return fmt.Errorf("core: directory holds %d pages, %d are live", len(s.dir), s.nPages)
	}
	// Slots, page side: each entry names a bound job that sits there, so
	// no two entries name the same job.
	for _, p := range s.livePages() {
		if s.dir[p.key] != p {
			return fmt.Errorf("core: page %d is not filed under its key", p.key)
		}
		for i, id := range p.occ {
			if id == ident.None {
				continue
			}
			t := p.key<<pageShift + Time(i)
			if int(id) >= len(s.byID) || s.byID[id] == nil || s.byID[id].slot != t {
				return fmt.Errorf("core: slot %d holds ID %d, which names no job on it", t, id)
			}
		}
	}
	// Jobs side: each sits on its slot, inside its window. With the page
	// side, occupied slots and bound jobs pair off one to one.
	jobsSeen := 0
	for id, j := range s.byID {
		if j == nil {
			continue
		}
		jobsSeen++
		if j.id != ident.ID(id) {
			return fmt.Errorf("core: job %q (ID %d) indexed under ID %d", j.name, j.id, id)
		}
		if got := s.names.Name(j.id); got != j.name {
			return fmt.Errorf("core: job ID %d interned as %q but carries name %q", j.id, got, j.name)
		}
		if !j.window().Contains(j.slot) {
			return fmt.Errorf("core: job %q at slot %d outside window %v", j.name, j.slot, j.window())
		}
		if s.occupant(j.slot) != j {
			return fmt.Errorf("core: slot %d does not hold job %q", j.slot, j.name)
		}
		if got := align.LevelOfSpan(j.key.span); got != j.level {
			return fmt.Errorf("core: job %q cached level %d, want %d", j.name, j.level, got)
		}
		// Level >= 1 jobs must sit in a fulfilled slot of their window,
		// whose state they cache.
		if j.level >= 1 {
			ws := s.liveWindow(j.key)
			if ws == nil {
				return fmt.Errorf("core: job %q has no window state", j.name)
			}
			if j.ws != ws {
				return fmt.Errorf("core: job %q caches a stale window state", j.name)
			}
			if iv := s.intervalAt(j.level, j.slot); iv == nil || int(iv.slotRank[j.slot-iv.start]) != ws.rank {
				return fmt.Errorf("core: job %q at slot %d not backed by a fulfilled reservation of window %v",
					j.name, j.slot, j.window())
			}
		}
	}
	if jobsSeen != s.active {
		return fmt.Errorf("core: %d active jobs but %d bound", s.active, jobsSeen)
	}

	// Intervals: each at its own page position, every cached table entry
	// recounted from scratch.
	fulfilledOf := make(map[*windowState][]Time)
	for _, p := range s.livePages() {
		for k, iv := range p.intervals() {
			lvl, start := 2, p.key<<pageShift
			if k < l2Pos {
				lvl, start = 1, start+Time(k)<<l1Shift
			}
			if iv.level != lvl || iv.start != start {
				return fmt.Errorf("core: level-%d interval at %d filed as level %d at %d", iv.level, iv.start, lvl, start)
			}
			if err := s.checkInterval(p, iv, fulfilledOf); err != nil {
				return err
			}
		}
	}

	// Window states: each at its own page position; job counts, fulfilled
	// counts, and each materialized window's free index against the slots
	// the intervals assign it.
	xCount := make(map[*windowState]int)
	for _, j := range s.byID {
		if j != nil && j.level >= 1 {
			xCount[j.ws]++
		}
	}
	for _, p := range s.livePages() {
		for k, ws := range p.windows() {
			if err := s.checkWindow(p, k, ws, xCount[ws], fulfilledOf[ws]); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveWindow returns the live window state of key, or nil.
func (s *Scheduler) liveWindow(key winKey) *windowState {
	p := s.pageAt(key.start)
	if p == nil {
		return nil
	}
	lvl := align.LevelOfSpan(key.span)
	return p.window(lvl, mathx.Log2Exact(key.span)-rankBase[lvl], key.start)
}

// checkInterval recounts iv's tables on page p, filing each fulfilled
// slot under its window in fulfilledOf.
func (s *Scheduler) checkInterval(p *page, iv *interval, fulfilledOf map[*windowState][]Time) error {
	if iv.span != align.IntervalSpan(iv.level) || len(iv.slotRank) != int(iv.span) || len(iv.occ) != int(iv.span) ||
		&iv.occ[0] != &p.occ[iv.start&pageMask] {
		return fmt.Errorf("core: interval at %d has span %d, %d slot entries, and does not read its page's slots",
			iv.start, iv.span, len(iv.slotRank))
	}
	// Rank r holds the one enclosing window of the r-th level span: the
	// one the directory files there (checkWindow checks its key and rank
	// against that position).
	spans := align.SpansAtLevel(iv.level)
	if len(iv.ranks) != len(spans) {
		return fmt.Errorf("core: interval %d has %d ranks, level %d has %d spans", iv.start, len(iv.ranks), iv.level, len(spans))
	}
	for r, e := range iv.ranks {
		want := keyOf(align.EnclosingAligned(iv.start, spans[r]))
		if e.ws == nil || s.liveWindow(want) != e.ws {
			return fmt.Errorf("core: interval %d rank %d does not hold window %v", iv.start, r, want.window())
		}
	}
	// Recount the slot table: assignments stay inside the allowance.
	capacity, assigned := 0, 0
	fulfilled := make([]int32, len(iv.ranks))
	for i, r := range iv.slotRank {
		t := iv.start + Time(i)
		if occ := s.byID[iv.occ[i]]; occ != nil && occ.level < iv.level {
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
		want := 1 + extraShare(int64(e.ws.x), idx, e.ws.numIntervals())
		if e.ws.materialized && int(e.reserved) != want {
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
	return nil
}

// checkWindow checks ws, live at position k of page p, against its x
// recounted active jobs and the slots its intervals assign it.
func (s *Scheduler) checkWindow(p *page, k int, ws *windowState, x int, slots []Time) error {
	w := ws.key.window()
	atPos := ws.level == 2 && ws.rank == k && ws.key.start == p.key<<pageShift ||
		ws.level == 1 && ws.key.start>>pageShift == p.key && w1Pos(ws.rank, ws.key.start) == k
	spans := align.SpansAtLevel(ws.level)
	if !atPos || ws.rank >= len(spans) || ws.key.span != spans[ws.rank] || !w.IsAligned() {
		return fmt.Errorf("core: level-%d rank-%d window %v filed at position %d of page %d", ws.level, ws.rank, w, k, p.key)
	}
	if ws.x != x {
		return fmt.Errorf("core: window %v records x=%d but %d active jobs", w, ws.x, x)
	}
	if ws.x > 0 && !ws.materialized {
		return fmt.Errorf("core: window %v has jobs but is not materialized", w)
	}
	if ws.nFulfilled != len(slots) {
		return fmt.Errorf("core: window %v counts %d fulfilled reservations, its intervals assign %d",
			w, ws.nFulfilled, len(slots))
	}
	// The free index must equal one rebuilt from the slot tables, word
	// for word, summaries included.
	var want [2]bitIndex
	if ws.materialized {
		want[freeEmpty].reset(int(ws.key.span))
		want[freeUnder].reset(int(ws.key.span))
	}
	for _, t := range slots {
		if !w.Contains(t) {
			return fmt.Errorf("core: window %v fulfilled slot %d outside window", w, t)
		}
		switch occ := s.occupant(t); {
		case occ == nil:
			want[freeEmpty].add(int(t - w.Start))
		case occ.level > ws.level:
			want[freeUnder].add(int(t - w.Start))
		case occ.key != ws.key:
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
	for _, p := range s.livePages() {
		for _, ws := range p.windows() {
			if slack := ws.nFulfilled - ws.x; ws.materialized && slack < min {
				min = slack
			}
		}
	}
	return min
}

// VerifyLemma8 checks the guarantee of Lemma 8: every materialized window
// with x active jobs holds at least x+1 fulfilled reservations. This only
// holds when the request sequence is 8-underallocated, so it is a
// separate check from SelfCheck.
func (s *Scheduler) VerifyLemma8() error {
	for _, p := range s.livePages() {
		for _, ws := range p.windows() {
			if ws.materialized && ws.nFulfilled < ws.x+1 {
				return fmt.Errorf("core: window %v has x=%d jobs but only %d fulfilled reservations (Lemma 8 wants >= %d)",
					ws.key.window(), ws.x, ws.nFulfilled, ws.x+1)
			}
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
	for _, p := range s.livePages() {
		for _, iv := range p.intervals() {
			for _, e := range iv.ranks {
				if e.ws.x == 0 {
					continue
				}
				out = append(out, ReservationState{
					Level:       iv.level,
					Interval:    iv.start,
					WindowStart: e.ws.key.start,
					WindowSpan:  e.ws.key.span,
					Fulfilled:   int(e.fulfilled),
					Waitlisted:  int(e.reserved - e.fulfilled),
				})
			}
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
