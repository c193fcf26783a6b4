package core

import (
	"iter"
	"math/bits"

	"repro/internal/align"
	"repro/internal/ident"
)

// Page directory. Section 4's machinery works on positions: a slot is a
// time, a level-l interval is the aligned run of Ll slots holding it, and
// aligned windows are laminar, so every interval has one enclosing window
// per span. A page is one level-2 interval's span, 256 slots keyed by
// t >> pageShift, and it holds everything positioned inside it:
//
//   - each slot's occupant, as the job's interned ID (resolved through
//     byID; ident.None when empty);
//   - its eight level-1 intervals and its level-2 interval;
//   - the seven level-1 windows that start inside it (four of span 64,
//     two of 128, one of 256);
//   - the level-2 windows that start at its first slot, by rank, in a
//     table allocated only on pages where one does.
//
// A nil entry is an interval or window that does not exist. Times reach
// 2^62, so the directory is a map from page key to page, with a one-entry
// cache in front: a request's lookups cluster in one page.
//
// Recycle empties the pages and keeps them, and moves their intervals (by
// level) and windows (by span) onto the scheduler's spare lists; the next
// generation takes from those before allocating. An interval always
// comes back at its own level and a window at its own span, so its free
// index fits. A scheduler so keeps its high-water structures, not every
// position it ever used.

const (
	pageShift = 8 // log2 L2: a page is one level-2 interval
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	l1Shift   = 5 // log2 L1
	l1PerPage = pageSize >> l1Shift
	l1Ranks   = pageShift - l1Shift // level-1 window spans: 64 .. 256
	l2Ranks   = 62 - pageShift      // level-2 window spans: 512 .. 2^62 (mathx.MaxSpan)
	// l2Pos is the level-2 interval's position in page.ivs, after the
	// level-1 intervals.
	l2Pos = l1PerPage
)

// ivShift[l] is log2 of the level-l interval span (level 0 has none).
var ivShift = [align.NumLevels]uint{0, l1Shift, pageShift}

type page struct {
	key Time // t >> pageShift for each slot t of the page
	occ [pageSize]ident.ID
	ivs [l1PerPage + 1]*interval
	w1  [l1PerPage - 1]*windowState // see w1Pos
	w2  []*windowState              // w2[r]: the rank-r level-2 window at the page start
}

// ivPos is the position in page.ivs of the level-lvl interval holding t.
func ivPos(lvl int, t Time) int {
	if lvl == 1 {
		return int(t&pageMask) >> l1Shift
	}
	return l2Pos
}

// w1Pos is the position in page.w1 of the rank-r level-1 window starting
// at start: spans 64 at 0..3, 128 at 4..5, 256 at 6.
func w1Pos(r int, start Time) int {
	return l1PerPage - l1PerPage>>r + int(start&pageMask)>>(l1Shift+1+r)
}

// interval returns p's level-lvl interval holding t, or nil.
//
//reallocvet:hotpath
func (p *page) interval(lvl int, t Time) *interval {
	return p.ivs[ivPos(lvl, t)]
}

// window returns p's rank-r level-lvl window starting at start, or nil.
func (p *page) window(lvl, r int, start Time) *windowState {
	if lvl == 1 {
		return p.w1[w1Pos(r, start)]
	}
	if r < len(p.w2) {
		return p.w2[r]
	}
	return nil
}

// pageAt returns the page holding t, or nil when none exists.
//
//reallocvet:hotpath
func (s *Scheduler) pageAt(t Time) *page {
	k := t >> pageShift
	if p := s.last; p != nil && p.key == k {
		return p
	}
	p := s.dir[k]
	if p != nil {
		s.last = p
	}
	return p
}

// pageFor returns the page holding t, creating it (from the pages an
// earlier generation emptied first) when none exists.
func (s *Scheduler) pageFor(t Time) *page {
	if p := s.pageAt(t); p != nil {
		return p
	}
	if s.nPages == len(s.pages) {
		s.pages = append(s.pages, new(page))
	}
	p := s.pages[s.nPages]
	s.nPages++
	p.key = t >> pageShift
	s.dir[p.key] = p
	s.last = p
	return p
}

// occupant returns the job on slot t, or nil.
//
//reallocvet:hotpath
func (s *Scheduler) occupant(t Time) *jobState {
	if p := s.pageAt(t); p != nil {
		return s.byID[p.occ[t&pageMask]]
	}
	return nil
}

// occupy puts j (nil to empty the slot) on slot t and returns the job it
// replaced and t's page. j must be bound in byID: the request in flight
// reads its own slot back.
func (s *Scheduler) occupy(t Time, j *jobState) (*jobState, *page) {
	p := s.pageFor(t)
	e := &p.occ[t&pageMask]
	prev := s.byID[*e]
	*e = ident.None
	if j != nil {
		*e = j.id
	}
	return prev, p
}

// intervalAt returns the level-lvl interval holding t, or nil.
//
//reallocvet:hotpath
func (s *Scheduler) intervalAt(lvl int, t Time) *interval {
	if p := s.pageAt(t); p != nil {
		return p.interval(lvl, t)
	}
	return nil
}

// window returns (creating if needed) the rank-r level-lvl window
// starting at start. Creation does not materialize its intervals.
func (s *Scheduler) window(lvl, r int, start Time) *windowState {
	p := s.pageFor(start)
	var slot **windowState
	if lvl == 1 {
		slot = &p.w1[w1Pos(r, start)]
	} else {
		// Rank r starts here only when the page key has r+1 trailing
		// zero bits.
		if n := min(bits.TrailingZeros64(uint64(p.key)), align.NumSpansAtLevel(2)); len(p.w2) < n {
			p.w2 = append(p.w2, make([]*windowState, n-len(p.w2))...)
		}
		slot = &p.w2[r]
	}
	if *slot != nil {
		return *slot
	}
	lg := rankBase[lvl] + r // log2 of the span
	var ws *windowState
	if n := len(s.spareWs[lg]); n > 0 {
		ws, s.spareWs[lg] = s.spareWs[lg][n-1], s.spareWs[lg][:n-1]
	} else {
		ws = new(windowState)
	}
	*ws = windowState{key: winKey{start: start, span: 1 << lg}, level: lvl, rank: r, free: ws.free}
	*slot = ws
	return ws
}

// retire empties the live pages, moving their intervals and windows
// onto the spare lists for the next generation.
func (s *Scheduler) retire() {
	for _, p := range s.pages[:s.nPages] {
		clear(p.occ[:])
		for _, iv := range p.intervals() {
			s.spareIv[iv.level] = append(s.spareIv[iv.level], iv)
		}
		for _, ws := range p.windows() {
			lg := rankBase[ws.level] + ws.rank
			s.spareWs[lg] = append(s.spareWs[lg], ws)
		}
		clear(p.ivs[:])
		clear(p.w1[:])
		clear(p.w2)
	}
	clear(s.dir)
	s.nPages, s.last = 0, nil
}

// livePages returns the pages in the directory, in creation order.
func (s *Scheduler) livePages() []*page { return s.pages[:s.nPages] }

// intervals yields p's intervals with their positions in p.ivs.
func (p *page) intervals() iter.Seq2[int, *interval] {
	return func(yield func(int, *interval) bool) {
		for k, iv := range p.ivs {
			if iv != nil && !yield(k, iv) {
				return
			}
		}
	}
}

// windows yields p's windows: the level-1 ones with their positions in
// p.w1, then the level-2 ones with their ranks.
func (p *page) windows() iter.Seq2[int, *windowState] {
	return func(yield func(int, *windowState) bool) {
		for k, ws := range p.w1 {
			if ws != nil && !yield(k, ws) {
				return
			}
		}
		for r, ws := range p.w2 {
			if ws != nil && !yield(r, ws) {
				return
			}
		}
	}
}
