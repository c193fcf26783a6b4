// Package core implements the paper's primary contribution (Section 4):
// the single-machine, reservation-based pecking-order reallocating
// scheduler for recursively aligned unit jobs, achieving per-request
// reallocation cost O(min{log* n, log* Δ}) on sufficiently underallocated
// instances.
//
// # Levels and intervals
//
// Spans are partitioned into levels by the tower thresholds L1 = 32,
// L2 = 2^{L1/4} = 256, L3 = 2^{L2/4} = 2^64 (clamped to 2^62 here):
// level 0 handles spans <= 32, level 1 spans in (32, 256], level 2 the
// rest. A level-l window with span 2^k * Ll is partitioned into 2^k
// aligned level-l intervals of exactly Ll slots.
//
// # Reservations (Invariant 5)
//
// A level-l window W with x active jobs holds 2x + 2^k reservations in
// its intervals: one base reservation per interval (materialized when
// the interval is first created, for every possible enclosing span, which
// is equivalent to the paper's "initially each window has one reservation
// in each interval"), plus two job reservations per job spread round-robin
// left to right. Each interval fulfills the reservations of the shortest
// windows first, up to its allowance (slots not occupied by lower-level
// jobs); the rest are waitlisted. Under 8-underallocation every window
// with x jobs keeps at least x+1 fulfilled reservations (Lemma 8), so a
// job-free fulfilled slot always exists for PLACE and MOVE; each window
// indexes those slots once it holds a job (freeindex.go).
//
// Aligned windows are laminar, so a level-l interval has exactly one
// enclosing window of each level-l span; each interval therefore indexes
// its reservation bookkeeping by the window's span rank, and "shortest
// waitlisted" and "longest fulfilled" are the lowest and highest set bits
// of two masks, with no tie to break.
//
// # Positions
//
// Slots, intervals and windows are all found by position, with no hash
// map keyed by them: a sparse page directory (page.go) maps each run of
// 256 slots (one level-2 interval) to a page holding the slots'
// occupants, the intervals inside it and the windows that start in it.
// A new interval takes each enclosing window that does not start with it
// from its left neighbour's rank table, and fulfills its base
// reservations in one pass over its slots.
//
// # Pecking order
//
// Lower levels schedule without regard to higher levels: placing a job in
// a slot removes that slot from every higher-level interval's allowance
// and may displace one higher-level job, which is recursively re-placed
// at its own level (the PLACE cascade, at most one reallocation per
// level). Base-level jobs (span <= 32) are scheduled by constant-depth
// pecking-order displacement inside their windows.
//
// The scheduler accepts only aligned windows; use the alignsched wrapper
// for arbitrary windows, the multi wrapper for m machines, and the trim
// wrapper to bound window spans by the active job count.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/align"
	"repro/internal/ident"
	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Time is an integer timeslot.
type Time = int64

// topLevel is the highest reservation level (levels are 0, 1, 2).
const topLevel = align.NumLevels - 1

// winKey identifies an aligned window.
type winKey struct {
	start Time
	span  int64
}

func (k winKey) window() jobs.Window { return jobs.Window{Start: k.start, End: k.start + k.span} }

func keyOf(w jobs.Window) winKey { return winKey{start: w.Start, span: w.Span()} }

// jobState is one active job. The hot-path machinery references jobs by
// their interned dense ID (slice indexing, the 4-byte slot entries of a
// page); the name is kept only for error texts and the public snapshots.
// jobStates are recycled through the scheduler's free list, so a
// steady-state insert/delete churn allocates nothing.
type jobState struct {
	name  string
	id    ident.ID
	key   winKey
	level int
	slot  Time
	// ws is the job's window state at levels >= 1 (nil at level 0).
	// Window states live until Recycle, so the pointer never dangles.
	ws *windowState
}

func (j *jobState) window() jobs.Window { return j.key.window() }

// windowState tracks a level-l (l >= 1) window's jobs and fulfilled
// reservations. Window states are created lazily (either by a job arrival
// or by an interval materializing its base reservation) and persist for
// the lifetime of the scheduler, exactly as the paper's conceptual
// "every window always has its base reservations". The page holding the
// window's first slot owns it.
type windowState struct {
	key          winKey
	level        int
	rank         int  // index of key.span in align.SpansAtLevel(level)
	x            int  // active jobs with exactly this window
	materialized bool // all intervals created (true once a job arrives)
	// nFulfilled counts the slots backing this window's fulfilled
	// reservations: those its intervals assign to its rank. The own-level
	// job on such a slot, if any, is the page's occupant there.
	nFulfilled int
	// free indexes a materialized window's job-free fulfilled slots by
	// offset from key.start, by kind (freeEmpty, freeUnder); see
	// freeindex.go. It is allocated when the window first materializes:
	// most windows only ever hold base reservations.
	free *[2]bitIndex
}

// numIntervals is 2^k, the number of level-l intervals the window spans.
func (ws *windowState) numIntervals() int64 { return 2 << ws.rank }

// rankEntry is one enclosing window's row in an interval's table.
type rankEntry struct {
	ws        *windowState
	reserved  int32 // reservations held here (base + round-robin extras)
	fulfilled int32 // how many of them this interval fulfills
}

// interval is one level-l interval: Ll consecutive slots. Its tables are
// indexed by rank r, the position of the enclosing window's span in
// align.SpansAtLevel(level); there is exactly one such window per rank.
type interval struct {
	level int
	start Time
	span  int64
	ranks []rankEntry
	// waitMask bit r is set iff rank r has a waitlisted reservation
	// (reserved > fulfilled); fullMask bit r iff it has a fulfilled one.
	waitMask, fullMask uint64
	// slotRank[t-start] is the rank whose fulfilled reservation slot t
	// backs, or -1. Slots occupied by lower-level jobs are never assigned
	// (they are outside the allowance).
	slotRank []int8
	// occ is the owning page's occupant table over the interval's slots:
	// occ[t-start] is the ID of the job on t.
	occ       []ident.ID
	nAssigned int
}

// rankBase[l] is log2 of the shortest level-l window span, so a level-l
// window of span w has rank log2(w) - rankBase[l]. The masks are uint64
// and slotRank is int8, so every level must have at most 64 spans.
var rankBase = func() (b [align.NumLevels]int) {
	for l := 1; l < align.NumLevels; l++ {
		if n := [...]int{0, l1Ranks, l2Ranks}[l]; align.NumSpansAtLevel(l) != n || align.IntervalSpan(l) != 1<<ivShift[l] {
			panic(fmt.Sprintf("core: level %d has %d spans and %d-slot intervals, the page geometry assumes %d and %d",
				l, align.NumSpansAtLevel(l), align.IntervalSpan(l), n, 1<<ivShift[l]))
		}
		b[l] = mathx.Log2Exact(align.SpansAtLevel(l)[0])
	}
	return b
}()

var _ [64 - l2Ranks]struct{} // the rank masks hold every level-2 span

// l1Block and l2Block hold an interval and its tables in one allocation.
type l1Block struct {
	iv    interval
	ranks [l1Ranks]rankEntry
	slots [1 << l1Shift]int8
}

type l2Block struct {
	iv    interval
	ranks [l2Ranks]rankEntry
	slots [pageSize]int8
}

// newInterval allocates a level-lvl interval with its tables. Recycle
// keeps it for reuse at the same level, so its tables never change size.
func newInterval(lvl int) (iv *interval) {
	if lvl == 1 {
		b := new(l1Block)
		iv, b.iv.ranks, b.iv.slotRank = &b.iv, b.ranks[:], b.slots[:]
	} else {
		b := new(l2Block)
		iv, b.iv.ranks, b.iv.slotRank = &b.iv, b.ranks[:], b.slots[:]
	}
	iv.level, iv.span = lvl, int64(len(iv.slotRank))
	return iv
}

// reset readies iv as the interval at start over the occupant table occ:
// every rank empty, every slot unassigned.
func (iv *interval) reset(start Time, occ []ident.ID) {
	iv.start, iv.occ = start, occ
	clear(iv.ranks)
	for i := range iv.slotRank {
		iv.slotRank[i] = -1
	}
	iv.waitMask, iv.fullMask, iv.nAssigned = 0, 0, 0
}

// syncMasks refreshes rank r's waitMask and fullMask bits from its counts.
//
//reallocvet:hotpath
func (iv *interval) syncMasks(r int) {
	e, bit := &iv.ranks[r], uint64(1)<<uint(r)
	if e.reserved > e.fulfilled {
		iv.waitMask |= bit
	} else {
		iv.waitMask &^= bit
	}
	if e.fulfilled > 0 {
		iv.fullMask |= bit
	} else {
		iv.fullMask &^= bit
	}
}

// Option configures the scheduler.
type Option func(*Scheduler)

// WithMaxIntervals caps the number of intervals a single window may span
// (default 1<<20). Inserting a job whose window exceeds the cap returns
// an error; wrap the scheduler with the trim package to keep windows
// bounded by the active job count instead.
func WithMaxIntervals(n int64) Option {
	return func(s *Scheduler) { s.maxIntervals = n }
}

// Scheduler is the reservation-based pecking-order scheduler.
type Scheduler struct {
	// names is the per-scheduler ID space: a job's name is interned when
	// the job is admitted and released when it leaves, so byID stays
	// dense (freed IDs are reissued).
	names  *ident.Table
	byID   []*jobState // ID-indexed active jobs; nil = inactive
	spare  []*jobState // recycled jobState structs
	active int

	// dir is the page directory (page.go): key t >> pageShift. pages
	// holds every page the scheduler owns, the nPages in dir first; the
	// rest were emptied by Recycle. last caches the latest lookup.
	dir    map[int64]*page
	pages  []*page
	nPages int
	last   *page
	// Spare intervals by level and windows by log2 of their span, kept
	// by Recycle for the next generation.
	spareIv [align.NumLevels][]*interval
	spareWs [64][]*windowState

	maxIntervals int64
	poisoned     error

	// cost accumulates the reallocations of the request in flight;
	// levelCost attributes them to the level of each moved job.
	cost      metrics.Cost
	levelCost [align.NumLevels]int
}

var _ sched.Scheduler = (*Scheduler)(nil)

// Recycling. The trimming wrappers rebuild by building a FRESH core and
// discarding the old one, so on rebuild-heavy workloads the pages, with
// their intervals and windows, are the dominant allocation source.
// Recycle (sched.Recycler) empties a discarded scheduler's pages, keeps
// them and their intervals and windows on its own spare lists (page.go),
// and pools the scheduler; New takes a pooled one first, so a rebuild
// reuses an earlier generation's structures. An interval comes back at
// its own level and a window at its own span.
// Pooling invariant: everything is cleared on the way in — slot entries
// zeroed, page entries and the directory emptied (capacity kept),
// jobState name strings and window pointers zeroed, the ID table reset —
// so a pooled scheduler pins no job names and leaks no state between
// generations. A reused interval or window is reset when it is next
// created; a window keeps its free-index capacity, and materialize
// resets the index before it is read.
var schedPool sync.Pool // *Scheduler

// errRecycled poisons a recycled scheduler so a stale reference fails
// loudly instead of corrupting the structure's next life.
var errRecycled = errors.New("core: scheduler was recycled (stale reference)")

// New returns an empty single-machine reservation scheduler, reusing
// pooled structures when a discarded scheduler donated them.
func New(opts ...Option) *Scheduler {
	var s *Scheduler
	if v := schedPool.Get(); v != nil {
		s = v.(*Scheduler)
		s.poisoned = nil
		s.maxIntervals = 1 << 20
	} else {
		s = &Scheduler{
			names: ident.New(),
			byID:  make([]*jobState, 1), // ID 0 is ident.None
			dir:   make(map[int64]*page),
		}
		s.maxIntervals = 1 << 20
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Recycle implements sched.Recycler: every page (with its intervals and
// windows) and job state is retired onto the scheduler's free lists, the
// ID space resets, and the scheduler itself is pooled for the next New.
// The caller must hold no references; a stale use fails with a poisoned
// error.
func (s *Scheduler) Recycle() {
	s.retire()
	for i, j := range s.byID {
		if j != nil {
			s.byID[i] = nil
			*j = jobState{} // drop the name reference
			s.spare = append(s.spare, j)
		}
	}
	s.names.Reset()
	s.active = 0
	s.cost = metrics.Cost{}
	s.levelCost = [align.NumLevels]int{}
	s.poisoned = errRecycled
	schedPool.Put(s)
}

// jobAt returns the active job bound to id, or nil.
func (s *Scheduler) jobAt(id ident.ID) *jobState {
	if int(id) < len(s.byID) {
		return s.byID[id]
	}
	return nil
}

// activeJob resolves a name to its active job state, or nil.
func (s *Scheduler) activeJob(name string) *jobState {
	id, ok := s.names.Get(name)
	if !ok {
		return nil
	}
	return s.jobAt(id)
}

// bindJob binds js.id to js, growing the ID-indexed slice on demand.
func (s *Scheduler) bindJob(js *jobState) {
	for int(js.id) >= len(s.byID) {
		s.byID = append(s.byID, nil)
	}
	s.byID[js.id] = js
}

// releaseJob unbinds a deleted job, frees its ID, and recycles the
// struct.
func (s *Scheduler) releaseJob(j *jobState) {
	s.byID[j.id] = nil
	s.active--
	s.names.Release(j.id)
	*j = jobState{} // drop the name reference before pooling
	s.spare = append(s.spare, j)
}

// takeJobState returns a zeroed jobState, recycled when possible.
func (s *Scheduler) takeJobState() *jobState {
	if n := len(s.spare); n > 0 {
		js := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return js
	}
	return &jobState{}
}

// Machines returns 1: this is a single-machine scheduler.
func (s *Scheduler) Machines() int { return 1 }

// Active returns the number of active jobs.
func (s *Scheduler) Active() int { return s.active }

// Jobs returns a snapshot of the active job set.
func (s *Scheduler) Jobs() []jobs.Job {
	out := make([]jobs.Job, 0, s.active)
	for _, j := range s.byID {
		if j != nil {
			out = append(out, jobs.Job{Name: j.name, Window: j.window()})
		}
	}
	return out
}

// Assignment returns a snapshot of the schedule (machine always 0).
func (s *Scheduler) Assignment() jobs.Assignment {
	out := make(jobs.Assignment, s.active)
	for _, j := range s.byID {
		if j != nil {
			out[j.name] = jobs.Placement{Machine: 0, Slot: j.slot}
		}
	}
	return out
}

// Insert adds an aligned job (Figure 1: two RESERVE calls, then PLACE).
//
//reallocvet:hotpath
func (s *Scheduler) Insert(j jobs.Job) (metrics.Cost, error) {
	if s.poisoned != nil {
		return metrics.Cost{}, s.poisoned
	}
	if err := j.Validate(); err != nil {
		return metrics.Cost{}, err
	}
	if !j.Window.IsAligned() {
		return metrics.Cost{}, fmt.Errorf("%w: %v", sched.ErrMisaligned, j.Window) //reallocvet:allow hotpath (rejection path: the request is refused before any state changes)
	}
	if s.activeJob(j.Name) != nil {
		return metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrDuplicateJob, j.Name) //reallocvet:allow hotpath (rejection path: the request is refused before any state changes)
	}
	level := align.LevelOfSpan(j.Window.Span())
	if level > 0 {
		if n := j.Window.Span() / align.IntervalSpan(level); n > s.maxIntervals {
			return metrics.Cost{}, fmt.Errorf("core: window %v spans %d intervals, exceeding the cap %d (wrap with trim)", //reallocvet:allow hotpath (rejection path: the request is refused before any state changes)
				j.Window, n, s.maxIntervals)
		}
	}
	js := s.takeJobState()
	*js = jobState{name: j.Name, id: s.names.Intern(j.Name), key: keyOf(j.Window), level: level}
	s.cost = metrics.Cost{}
	s.levelCost = [align.NumLevels]int{}
	s.bindJob(js) // bound before placement: occupants resolve through byID

	var err error
	if js.level == 0 {
		err = s.baseInsert(js)
	} else {
		err = s.reservedInsert(js)
	}
	if err != nil {
		// A mid-request failure can leave partially updated reservation
		// state; poison the scheduler so the caller cannot keep using an
		// inconsistent schedule. (Failures only occur on instances that
		// are not sufficiently underallocated. The job is unbound, so the
		// snapshots leave it out, but its interned ID is not released: a
		// poisoned scheduler serves nothing anyway.)
		s.byID[js.id] = nil
		s.poisoned = fmt.Errorf("core: scheduler poisoned by failed insert of %q: %w", j.Name, err) //reallocvet:allow hotpath (poison path: the scheduler is already lost; the post-mortem may allocate)
		return s.cost, err
	}
	s.active++
	return s.cost, nil
}

// LastCostByLevel reports how the most recent request's reallocations
// were distributed across levels — the empirical counterpart of Lemma 9's
// "O(1) reallocations at each level of the scheduler".
func (s *Scheduler) LastCostByLevel() [align.NumLevels]int { return s.levelCost }

// Delete removes an active job.
//
//reallocvet:hotpath
func (s *Scheduler) Delete(name string) (metrics.Cost, error) {
	if s.poisoned != nil {
		return metrics.Cost{}, s.poisoned
	}
	j := s.activeJob(name)
	if j == nil {
		return metrics.Cost{}, fmt.Errorf("%w: %q", sched.ErrUnknownJob, name) //reallocvet:allow hotpath (rejection path: the request is refused before any state changes)
	}
	s.cost = metrics.Cost{}
	s.levelCost = [align.NumLevels]int{}
	var err error
	if j.level == 0 {
		s.baseDelete(j)
	} else {
		err = s.reservedDelete(j)
	}
	if err != nil {
		s.poisoned = fmt.Errorf("core: scheduler poisoned by failed delete of %q: %w", j.name, err) //reallocvet:allow hotpath (poison path: the scheduler is already lost; the post-mortem may allocate)
		return s.cost, err
	}
	s.releaseJob(j)
	return s.cost, nil
}

// ---------------------------------------------------------------------
// Level >= 1: reservation machinery
// ---------------------------------------------------------------------

// reservedInsert implements the insert path of Figure 1 for levels >= 1.
//
//reallocvet:hotpath
func (s *Scheduler) reservedInsert(j *jobState) error {
	ws := s.window(j.level, bits.TrailingZeros64(uint64(j.key.span))-rankBase[j.level], j.key.start)
	j.ws = ws
	s.materialize(ws)
	xOld := int64(ws.x)
	ws.x++
	// Invariant 5: the two new reservations go to the leftmost intervals
	// with the fewest of W's reservations, i.e. round-robin positions
	// 2*xOld and 2*xOld+1 (extras are even, so the pair never wraps).
	r := (2 * xOld) % ws.numIntervals()
	for _, idx := range []int64{r, r + 1} {
		iv := s.intervalAt(ws.level, ws.key.start+idx<<ivShift[ws.level])
		if iv == nil {
			return fmt.Errorf("core: interval %d of window %v not materialized", idx, ws.key.window()) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
		}
		if err := s.addReservation(iv, ws); err != nil {
			return err
		}
	}
	return s.place(j)
}

// reservedDelete removes a level >= 1 job and its two newest reservations.
//
//reallocvet:hotpath
func (s *Scheduler) reservedDelete(j *jobState) error {
	ws := j.ws
	if ws == nil {
		return fmt.Errorf("core: window state missing for %v", j.key.window()) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
	}
	slot := j.slot
	_, p := s.occupy(slot, nil)
	if iv := p.interval(ws.level, slot); iv == nil || int(iv.slotRank[slot-iv.start]) != ws.rank {
		return fmt.Errorf("core: job %q at slot %d not backed by a fulfilled reservation", j.name, slot) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
	}
	ws.index(slot, nil) // the reservation stays fulfilled, now job-free
	s.reindexBelow(slot, j.level, nil)
	// The slot is no longer occupied by a level-l job: higher-level
	// allowances grow (possibly promoting one waitlisted reservation each).
	s.growAbove(slot, j.level)

	ws.x--
	// Remove the two most recently added reservations (the rightmost
	// intervals holding the most of W's reservations).
	r := (2 * int64(ws.x)) % ws.numIntervals()
	for _, idx := range []int64{r + 1, r} {
		iv := s.intervalAt(ws.level, ws.key.start+idx<<ivShift[ws.level])
		if iv == nil {
			return fmt.Errorf("core: interval %d of window %v not materialized", idx, ws.key.window()) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
		}
		if err := s.removeReservation(iv, ws); err != nil {
			return err
		}
	}
	return nil
}

// place implements PLACE (Figure 1 lines 15-23): put the job in a
// job-free fulfilled slot of its window, shrink higher allowances, and
// cascade any displaced higher-level job.
//
//reallocvet:hotpath
func (s *Scheduler) place(j *jobState) error {
	cur := j
	for {
		ws := cur.ws
		if ws == nil {
			return fmt.Errorf("core: window state missing for %v", cur.key.window()) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
		}
		slot, ok := ws.pickFulfilledSlot()
		if !ok {
			return &sched.InfeasibleError{ //reallocvet:allow hotpath (infeasible-rejection path, off the steady-state hot path)
				Req:    jobs.Request{Kind: jobs.Insert, Name: cur.name, Window: cur.window()},
				Detail: fmt.Sprintf("window %v has no job-free fulfilled reservation (Lemma 8 requires 8-underallocation)", cur.key.window()), //reallocvet:allow hotpath (infeasible-rejection path, off the steady-state hot path)
			}
		}
		displaced, p := s.occupy(slot, cur) // nil, or a strictly higher-level job
		cur.slot = slot
		s.cost.Reallocations++
		s.levelCost[cur.level]++
		ws.unindex(slot)
		if displaced == nil { // below, an empty slot now reads as under a higher-level job
			s.reindexBelow(slot, cur.level, cur)
		}

		hLevel := topLevel + 1
		if displaced != nil {
			if displaced.level <= cur.level {
				return fmt.Errorf("core: fulfilled slot %d of %v held level-%d job %q (pecking order violated)", //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
					slot, cur.key.window(), displaced.level, displaced.name)
			}
			hLevel = displaced.level
		}
		// The slot is now occupied by a level-cur job: remove it from the
		// allowance of every higher-level interval up to the displaced
		// job's level (above that it was already occupied).
		for lvl := cur.level + 1; lvl <= topLevel && lvl <= hLevel; lvl++ {
			iv := p.interval(lvl, slot)
			if iv == nil {
				continue
			}
			if err := s.shrink(iv, slot); err != nil {
				return err
			}
		}
		if displaced == nil {
			return nil
		}
		cur = displaced // re-place at its own (higher) level
	}
}

// move implements MOVE (Figure 1 lines 10-14): job j lost the reservation
// backing its slot (the caller has already unassigned it); relocate j to
// another job-free fulfilled slot of its window, swapping the two slots'
// state in every ancestor interval and physically relocating at most one
// higher-level job.
func (s *Scheduler) move(j *jobState) error {
	ws := j.ws
	from := j.slot
	to, ok := ws.pickFulfilledSlot()
	if !ok {
		return &sched.InfeasibleError{
			Req:    jobs.Request{Kind: jobs.Insert, Name: j.name, Window: j.window()},
			Detail: fmt.Sprintf("MOVE: window %v has no job-free fulfilled reservation", j.key.window()),
		}
	}
	h := s.occupant(to) // nil or higher-level job occupying the fulfilled slot
	if h != nil && h.level <= j.level {
		return fmt.Errorf("core: MOVE target %d of %v held level-%d job %q", to, j.key.window(), h.level, h.name)
	}
	// Physical relocation: j goes from 'from' to 'to'; any higher-level
	// occupant of 'to' takes j's old slot 'from'.
	_, p := s.occupy(from, h)
	if h != nil {
		h.slot = from
		s.cost.Reallocations++
		s.levelCost[h.level]++
		// h's own window keeps its fulfilled reservation; the per-level
		// swap below renames the backing slot from 'to' to 'from'.
	}
	s.occupy(to, j)
	j.slot = to
	s.cost.Reallocations++
	s.levelCost[j.level]++
	ws.unindex(to)
	if h == nil { // below, 'from' empties and 'to' fills; with h both stay under a job
		s.reindexBelow(from, j.level, nil)
		s.reindexBelow(to, j.level, j)
	}

	// Swap the two slots' assignment state in every ancestor interval
	// (levels above j's). Both slots lie inside j's window, which is
	// contained in a single interval at every higher level, so the net
	// allowance of each ancestor is unchanged: no promotion or waitlist
	// adjustments are needed.
	for lvl := j.level + 1; lvl <= topLevel; lvl++ {
		iv := p.interval(lvl, from)
		if iv == nil {
			continue
		}
		if to&^(iv.span-1) != iv.start {
			return fmt.Errorf("core: MOVE slots %d and %d straddle level-%d intervals", from, to, lvl)
		}
		s.swapAssigned(iv, from, to, h, j)
	}
	return nil
}

// swapAssigned exchanges the reservation assignments of slots a and b in
// interval iv, after the jobs on them (occA on a, occB on b, nil for
// none) have moved, and refiles both slots in the owning windows' free
// indexes.
//
//reallocvet:hotpath
func (s *Scheduler) swapAssigned(iv *interval, a, b Time, occA, occB *jobState) {
	ia, ib := a-iv.start, b-iv.start
	ra, rb := iv.slotRank[ia], iv.slotRank[ib]
	iv.slotRank[ia], iv.slotRank[ib] = rb, ra
	// Drop both old entries before filing the new ones: ra and rb may be
	// the same window.
	var wa, wb *windowState
	if ra >= 0 {
		wa = iv.ranks[ra].ws
		wa.unindex(a)
	}
	if rb >= 0 {
		wb = iv.ranks[rb].ws
		wb.unindex(b)
	}
	if wa != nil {
		wa.index(b, occB)
	}
	if wb != nil {
		wb.index(a, occA)
	}
}

// addReservation implements RESERVE (Figure 1 lines 1-9) at interval iv
// for window ws.
//
//reallocvet:hotpath
func (s *Scheduler) addReservation(iv *interval, ws *windowState) error {
	iv.ranks[ws.rank].reserved++
	iv.syncMasks(ws.rank)
	return s.fulfill(iv, ws)
}

// fulfill backs a waitlisted reservation of ws at iv with the lowest free
// allowance slot, or else with a slot stolen from the longest fulfilled
// window when that window is longer than ws (preferring a job-free slot,
// and moving the job that backed it; the victim's reservation is
// waitlisted). Otherwise ws's reservation stays waitlisted.
//
//reallocvet:hotpath
func (s *Scheduler) fulfill(iv *interval, ws *windowState) error {
	if f, ok := s.freeSlot(iv, 0); ok {
		s.assign(iv, f, ws)
		return nil
	}
	long, ok := iv.longestFulfilled()
	if !ok || long <= ws.rank {
		return nil
	}
	slot, occupant := s.pickAssignedSlot(iv, iv.ranks[long].ws)
	s.unassign(iv, slot)
	if occupant != nil {
		if err := s.move(occupant); err != nil {
			return err
		}
	}
	s.assign(iv, slot, ws)
	return nil
}

// removeReservation drops one of ws's reservations at iv, releasing a
// fulfilled slot (and moving its job) only when the remaining count
// requires it, then promotes the shortest waitlisted window.
//
//reallocvet:hotpath
func (s *Scheduler) removeReservation(iv *interval, ws *windowState) error {
	e := &iv.ranks[ws.rank]
	if e.reserved <= 0 {
		return fmt.Errorf("core: removing nonexistent reservation of %v at interval %d", ws.key.window(), iv.start) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
	}
	e.reserved--
	iv.syncMasks(ws.rank)
	if e.fulfilled <= e.reserved {
		return nil // a waitlisted reservation absorbed the removal
	}
	slot, occupant := s.pickAssignedSlot(iv, ws)
	s.unassign(iv, slot)
	if occupant != nil {
		if err := s.move(occupant); err != nil {
			return err
		}
	}
	s.promote(iv, slot)
	return nil
}

// shrink removes slot t from interval iv's allowance after a lower-level
// job occupied it (Figure 1 lines 17-21). If the slot backed a fulfilled
// reservation, that window is re-fulfilled from a free slot, or by
// waitlisting the longest fulfilled window (moving its job if one backed
// the stolen slot); otherwise it becomes waitlisted itself.
//
//reallocvet:hotpath
func (s *Scheduler) shrink(iv *interval, t Time) error {
	r := iv.slotRank[t-iv.start]
	if r < 0 {
		return nil
	}
	v := iv.ranks[r].ws
	s.unassign(iv, t) // any own-level occupant is the displaced job handled by the caller
	return s.fulfill(iv, v)
}

// growAbove returns slot t to the allowance of every existing interval at
// levels strictly above l, promoting one waitlisted reservation each.
//
//reallocvet:hotpath
func (s *Scheduler) growAbove(t Time, l int) {
	p := s.pageAt(t)
	for lvl := l + 1; lvl <= topLevel; lvl++ {
		if iv := p.interval(lvl, t); iv != nil {
			s.promote(iv, t)
		}
	}
}

// promote assigns the free slot t to the shortest window with a
// waitlisted reservation at iv (the lowest waitMask bit), if any.
//
//reallocvet:hotpath
func (s *Scheduler) promote(iv *interval, t Time) {
	if iv.waitMask != 0 {
		s.assign(iv, t, iv.ranks[bits.TrailingZeros64(iv.waitMask)].ws)
	}
}

// assign backs a fulfilled reservation of ws with slot t.
//
//reallocvet:hotpath
func (s *Scheduler) assign(iv *interval, t Time, ws *windowState) {
	i := t - iv.start
	if iv.slotRank[i] >= 0 {
		panic(fmt.Sprintf("core: slot %d already assigned in interval %d", t, iv.start)) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
	}
	iv.slotRank[i] = int8(ws.rank)
	iv.nAssigned++
	iv.ranks[ws.rank].fulfilled++
	iv.syncMasks(ws.rank)
	ws.nFulfilled++
	if ws.materialized {
		ws.setFree(t, s.byID[iv.occ[i]]) // a fresh fulfilled slot never holds an own-level job
	}
}

// unassign releases the reservation backing slot t. The caller is
// responsible for relocating the own-level job that occupied it, if any.
//
//reallocvet:hotpath
func (s *Scheduler) unassign(iv *interval, t Time) {
	i := t - iv.start
	r := int(iv.slotRank[i])
	if r < 0 {
		panic(fmt.Sprintf("core: slot %d not assigned in interval %d", t, iv.start)) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
	}
	iv.slotRank[i] = -1
	iv.nAssigned--
	iv.ranks[r].fulfilled--
	iv.syncMasks(r)
	ws := iv.ranks[r].ws
	ws.nFulfilled--
	ws.unindex(t)
}

// freeSlot returns the lowest slot of iv at offset from or later that is
// inside the allowance and not yet assigned.
//
//reallocvet:hotpath
func (s *Scheduler) freeSlot(iv *interval, from int) (Time, bool) {
	if iv.nAssigned == len(iv.slotRank) {
		return 0, false
	}
	for i := from; i < len(iv.slotRank); i++ {
		if iv.slotRank[i] >= 0 {
			continue
		}
		if occ := s.byID[iv.occ[i]]; occ != nil && occ.level < iv.level {
			continue // outside the allowance
		}
		return iv.start + Time(i), true
	}
	return 0, false
}

// longestFulfilled returns the rank of the longest window holding at
// least one fulfilled reservation in iv: the top bit of fullMask.
//
//reallocvet:hotpath
func (iv *interval) longestFulfilled() (int, bool) {
	if iv.fullMask == 0 {
		return 0, false
	}
	return 63 - bits.LeadingZeros64(iv.fullMask), true
}

// ---------------------------------------------------------------------
// Window and interval lifecycle
// ---------------------------------------------------------------------

// materialize creates every interval of ws (idempotent) and builds its
// free index. Called before the first job of a window arrives, so that
// all of the window's base reservations physically exist, matching
// Invariant 5's 2^k term.
func (s *Scheduler) materialize(ws *windowState) {
	if ws.materialized {
		return
	}
	if ws.free == nil {
		ws.free = new([2]bitIndex)
	}
	ws.free[freeEmpty].reset(int(ws.key.span))
	ws.free[freeUnder].reset(int(ws.key.span))
	ivSpan := align.IntervalSpan(ws.level)
	for t := ws.key.start; t < ws.key.start+ws.key.span; t += ivSpan {
		s.buildIndex(ws, s.getInterval(ws.level, t))
	}
	ws.materialized = true
}

// getInterval returns (creating if needed) the level-lvl interval
// starting at start. Creation derives the allowance from the page's
// occupants and installs one base reservation for every enclosing window
// span, fulfilled shortest-first at the lowest free allowance slots.
func (s *Scheduler) getInterval(lvl int, start Time) *interval {
	p := s.pageFor(start)
	k := ivPos(lvl, start)
	if p.ivs[k] != nil {
		return p.ivs[k]
	}
	var iv *interval
	if n := len(s.spareIv[lvl]); n > 0 {
		iv, s.spareIv[lvl] = s.spareIv[lvl][n-1], s.spareIv[lvl][:n-1]
	} else {
		iv = newInterval(lvl)
	}
	off := start & pageMask
	iv.reset(start, p.occ[off:off+iv.span])
	p.ivs[k] = iv
	// A window that does not start here also encloses the left
	// neighbour, whose rank table already names it.
	var left *interval
	if start > 0 {
		left = s.intervalAt(lvl, start-iv.span)
	}
	next := 0 // every slot below next is assigned or outside the allowance
	for r := range iv.ranks {
		var ws *windowState
		switch span := iv.span << (r + 1); {
		case start&(span-1) == 0:
			ws = s.window(lvl, r, start)
		case left != nil:
			ws = left.ranks[r].ws
		default:
			ws = s.window(lvl, r, start&^(span-1))
		}
		iv.ranks[r] = rankEntry{ws: ws, reserved: 1}
		iv.syncMasks(r)
		if f, ok := s.freeSlot(iv, next); ok {
			s.assign(iv, f, ws)
			next = int(f-start) + 1
		} else {
			next = len(iv.slotRank)
		}
	}
	return iv
}

// ---------------------------------------------------------------------
// Base level (spans <= 32): constant-depth pecking-order displacement
// ---------------------------------------------------------------------

// baseInsert schedules a base-level job by pecking-order displacement
// among base jobs; only the cascade's final placement consumes a new slot,
// so exactly one higher-level allowance shrink (and at most one displaced
// higher-level job) results.
//
//reallocvet:hotpath
func (s *Scheduler) baseInsert(j *jobState) error {
	cur := j
	for {
		w := cur.window()
		// Prefer a completely empty slot, then a slot holding only a
		// higher-level job.
		finalSlot, finalOK := Time(0), false
		finalEmpty := false
		var victim *jobState
		p := s.pageAt(w.Start) // a base window lies inside one page
		for t := w.Start; t < w.End; t++ {
			var occ *jobState
			if p != nil {
				occ = s.byID[p.occ[t&pageMask]]
			}
			switch {
			case occ == nil:
				if !finalOK || !finalEmpty {
					finalSlot, finalOK, finalEmpty = t, true, true
				}
			case occ.level > 0:
				if !finalOK {
					finalSlot, finalOK, finalEmpty = t, true, false
				}
			default: // base-level occupant: displacement candidate if longer
				if victim == nil && occ.key.span > cur.key.span {
					victim = occ
				}
			}
			if finalOK && finalEmpty {
				break
			}
		}
		if finalOK {
			displaced, p := s.occupy(finalSlot, cur) // nil or higher-level
			cur.slot = finalSlot
			s.cost.Reallocations++
			s.levelCost[0]++
			hLevel := topLevel + 1
			if displaced != nil {
				hLevel = displaced.level
			}
			for lvl := 1; lvl <= topLevel && lvl <= hLevel; lvl++ {
				iv := p.interval(lvl, finalSlot)
				if iv == nil {
					continue
				}
				if err := s.shrink(iv, finalSlot); err != nil {
					return err
				}
			}
			if displaced == nil {
				return nil
			}
			return s.place(displaced)
		}
		if victim == nil {
			return &sched.InfeasibleError{ //reallocvet:allow hotpath (infeasible-rejection path, off the steady-state hot path)
				Req:    jobs.Request{Kind: jobs.Insert, Name: cur.name, Window: cur.window()},
				Detail: fmt.Sprintf("base window %v fully occupied by equal-or-shorter spans", w), //reallocvet:allow hotpath (infeasible-rejection path, off the steady-state hot path)
			}
		}
		// Swap with the longer-span base job: the set of base-occupied
		// slots is unchanged, so no higher-level bookkeeping is needed.
		slot := victim.slot
		s.occupy(slot, cur)
		cur.slot = slot
		s.cost.Reallocations++
		s.levelCost[0]++
		cur = victim
	}
}

// baseDelete removes a base-level job, growing higher allowances.
//
//reallocvet:hotpath
func (s *Scheduler) baseDelete(j *jobState) {
	s.occupy(j.slot, nil)
	s.growAbove(j.slot, 0)
}
