package core

import (
	"fmt"
	"math/bits"
)

// Free-slot index. PLACE and MOVE take "a job-free fulfilled slot" of
// the job's window (Lemma 8 guarantees one exists): the lowest empty
// one, else the lowest one under a higher-level job. A materialized
// window keeps its job-free fulfilled slots in two bitIndexes over its
// span, so the pick is a minimum query. Which own-level job holds a
// fulfilled slot, if any, is not stored at all: it is the page's
// occupant there.
//
// A slot's entry changes only where the slot changes: when an interval
// assigns or releases it (assign, unassign, swapAssigned), when an
// own-level job arrives or leaves (place, move, reservedDelete), and when
// a higher-level job arrives at or leaves an empty slot, which only the
// one interval below can see (reindexBelow). Windows that never had a
// job are not indexed: nothing picks from them, and their spans reach
// 2^62.

// The two kinds of job-free fulfilled slot, indexing windowState.free.
const (
	freeEmpty = iota // no job at all
	freeUnder        // a higher-level job only
)

// bitIndex is a set of integers in [0, n) with O(depth) insert, remove
// and minimum: a bitmap plus summary levels, where bit i of level k+1 is
// set iff word i of level k is nonzero, up to a single top word. A
// 2^16-slot window has three levels.
type bitIndex struct {
	lv  [][]uint64 // lv[0] is the bitmap itself; the last level is one word
	buf []uint64   // backing array of every level, reused across resets
}

// reset empties b and sizes it for [0, n), reusing its capacity.
func (b *bitIndex) reset(n int) {
	total := 0
	for w := n; w > 1; {
		w = (w + 63) / 64
		total += w
	}
	b.buf = resized(b.buf, max(total, 1))
	clear(b.buf)
	b.lv = b.lv[:0]
	off := 0
	for w := n; ; {
		w = (w + 63) / 64
		b.lv = append(b.lv, b.buf[off:off+w:off+w])
		off += w
		if w <= 1 {
			return
		}
	}
}

// resized returns b with length n, reallocating only when it lacks the
// capacity.
func resized(b []uint64, n int) []uint64 {
	if cap(b) < n {
		return make([]uint64, n)
	}
	return b[:n]
}

// add inserts i.
//
//reallocvet:hotpath
func (b *bitIndex) add(i int) {
	for _, l := range b.lv {
		w := i >> 6
		old := l[w]
		l[w] = old | 1<<uint(i&63)
		if old != 0 {
			return
		}
		i = w
	}
}

// remove deletes i (a no-op when absent).
//
//reallocvet:hotpath
func (b *bitIndex) remove(i int) {
	for _, l := range b.lv {
		w := i >> 6
		l[w] &^= 1 << uint(i&63)
		if l[w] != 0 {
			return
		}
		i = w
	}
}

// min returns the smallest member, or -1 when b is empty.
//
//reallocvet:hotpath
func (b *bitIndex) min() int {
	top := len(b.lv) - 1
	if top < 0 || b.lv[top][0] == 0 {
		return -1
	}
	i := 0
	for k := top; k >= 0; k-- {
		i = i<<6 | bits.TrailingZeros64(b.lv[k][i])
	}
	return i
}

// minIn returns the smallest member in [lo, hi), or -1. It reads the
// bitmap's words directly: callers ask about one interval, at most four
// words.
//
//reallocvet:hotpath
func (b *bitIndex) minIn(lo, hi int) int {
	leaf := b.lv[0]
	for w := lo >> 6; w<<6 < hi; w++ {
		v := leaf[w]
		if w == lo>>6 {
			v &= ^uint64(0) << uint(lo&63)
		}
		if rem := hi - w<<6; rem < 64 {
			v &= 1<<uint(rem) - 1
		}
		if v != 0 {
			return w<<6 | bits.TrailingZeros64(v)
		}
	}
	return -1
}

// setFree files the fulfilled slot t of ws under its occupant occ (the
// job on t, or nil): empty, under a higher-level job, or not
// free (an own-level job).
//
//reallocvet:hotpath
func (ws *windowState) setFree(t Time, occ *jobState) {
	i := int(t - ws.key.start)
	switch {
	case occ == nil:
		ws.free[freeUnder].remove(i)
		ws.free[freeEmpty].add(i)
	case occ.level > ws.level:
		ws.free[freeEmpty].remove(i)
		ws.free[freeUnder].add(i)
	default:
		ws.free[freeEmpty].remove(i)
		ws.free[freeUnder].remove(i)
	}
}

// index refiles t (a fulfilled slot of ws) under its occupant occ when ws
// is indexed.
//
//reallocvet:hotpath
func (ws *windowState) index(t Time, occ *jobState) {
	if ws.materialized {
		ws.setFree(t, occ)
	}
}

// unindex drops t from ws's free slots: it no longer backs ws's
// reservation, or ws's own job now holds it.
//
//reallocvet:hotpath
func (ws *windowState) unindex(t Time) {
	if ws.materialized {
		i := int(t - ws.key.start)
		ws.free[freeEmpty].remove(i)
		ws.free[freeUnder].remove(i)
	}
}

// buildIndex indexes the fulfilled slots ws holds in iv, for a window
// being materialized.
func (s *Scheduler) buildIndex(ws *windowState, iv *interval) {
	left := iv.ranks[ws.rank].fulfilled
	for i, r := range iv.slotRank {
		if left == 0 {
			return
		}
		if int(r) == ws.rank {
			t := iv.start + Time(i)
			ws.setFree(t, s.byID[iv.occ[i]])
			left--
		}
	}
}

// reindexBelow refiles slot t at every level below l after a level-l job
// arrived at an empty t or left it (occ is t's occupant now): windows
// there see the slot turn from empty to under a higher-level job, or
// back.
//
//reallocvet:hotpath
func (s *Scheduler) reindexBelow(t Time, l int, occ *jobState) {
	p := s.pageAt(t)
	for lvl := 1; lvl < l; lvl++ {
		if iv := p.interval(lvl, t); iv != nil {
			if r := iv.slotRank[t-iv.start]; r >= 0 {
				iv.ranks[r].ws.index(t, occ)
			}
		}
	}
}

// pickFulfilledSlot returns a job-free fulfilled slot of ws: the lowest
// empty one, which avoids displacing a higher-level job, else the lowest
// one under a higher-level job. The paper's algorithm is correct under
// any choice. Taking the lowest of either kind instead cost 0.541
// reallocations per request against this rule's 0.516 on seeded
// γ=8 churn over a 4096-slot horizon.
//
//reallocvet:hotpath
func (ws *windowState) pickFulfilledSlot() (Time, bool) {
	i := ws.free[freeEmpty].min()
	if i < 0 {
		i = ws.free[freeUnder].min()
	}
	if i < 0 {
		return 0, false
	}
	return ws.key.start + Time(i), true
}

// pickAssignedSlot returns one of ws's fulfilled slots in iv, preferring
// slots without an own-level job, then the lowest slot, and the own-level
// job occupying it (nil if none). A window that was never materialized
// has never held a job, so its lowest slot in iv is job-free.
//
//reallocvet:hotpath
func (s *Scheduler) pickAssignedSlot(iv *interval, ws *windowState) (Time, *jobState) {
	if ws.materialized {
		lo := int(iv.start - ws.key.start)
		hi := lo + len(iv.slotRank)
		i := ws.free[freeEmpty].minIn(lo, hi)
		if u := ws.free[freeUnder].minIn(lo, hi); u >= 0 && (i < 0 || u < i) {
			i = u
		}
		if i >= 0 {
			return ws.key.start + Time(i), nil
		}
	}
	r := int8(ws.rank)
	for i, sr := range iv.slotRank {
		if sr == r {
			t := iv.start + Time(i)
			if !ws.materialized {
				return t, nil
			}
			return t, s.byID[iv.occ[i]] // every fulfilled slot of ws in iv holds an own-level job
		}
	}
	panic(fmt.Sprintf("core: window %v has no fulfilled slot in interval %d", ws.key.window(), iv.start)) //reallocvet:allow hotpath (corruption guard: unreachable on a consistent schedule)
}
