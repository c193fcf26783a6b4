// Package align implements the paper's alignment machinery:
//
//   - ALIGNED(W): the largest aligned window contained in an arbitrary
//     window W (Section 5); |ALIGNED(W)| >= |W|/4.
//   - The tower-function level thresholds L1 = 32, L_{l+1} = 2^{Ll/4}
//     of the interval decomposition (Section 4).
//   - The span Ll of the aligned level-l intervals a level-l window
//     decomposes into, and the spans each level covers.
//
// A window is aligned when its span is a power of two and its start is a
// multiple of its span. Recursively aligned windows are laminar: any two
// are disjoint or nested.
package align

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/mathx"
)

// NumLevels is the number of reservation levels representable with spans
// up to mathx.MaxSpan = 2^62: level 1 covers (32, 256], level 2 covers
// (256, 2^62]. (The paper's L3 = 2^64 exceeds every representable span,
// so level 2 is the top level in practice.)
const NumLevels = 3 // levels 0, 1, 2

// levelBounds[l] is L_l, the exclusive lower span bound of level l.
// Level l handles spans in (levelBounds[l], levelBounds[l+1]].
var levelBounds = [NumLevels + 1]int64{
	1,             // L0: base level handles spans (1, 32]... see note below
	32,            // L1 = 2^5
	256,           // L2 = 2^{32/4} = 2^8
	mathx.MaxSpan, // L3 is 2^64 in the paper; clamped to MaxSpan
}

// LevelOfSpan returns the reservation level of an aligned span:
// 0 for spans <= 32, 1 for (32, 256], 2 for (256, 2^62].
// It panics if span is not a positive power of two.
func LevelOfSpan(span int64) int {
	if !mathx.IsPow2(span) {
		panic(fmt.Sprintf("align: LevelOfSpan of non-power-of-two %d", span))
	}
	switch {
	case span <= levelBounds[1]:
		return 0
	case span <= levelBounds[2]:
		return 1
	default:
		return 2
	}
}

// IntervalSpan returns the span Ll of level-l intervals, for l >= 1.
// Level-l windows are partitioned into aligned blocks of exactly this
// many slots. (Level 0 has no intervals; its jobs are scheduled by the
// base-level pecking-order scheduler.)
func IntervalSpan(l int) int64 {
	if l < 1 || l >= NumLevels {
		panic(fmt.Sprintf("align: IntervalSpan(%d) out of range [1,%d]", l, NumLevels-1))
	}
	return levelBounds[l]
}

// NumSpansAtLevel returns how many distinct aligned spans exist at level
// l >= 1: spans 2*Ll, 4*Ll, ..., L_{l+1}. The paper's Equation 1 bounds
// this by lg(L_{l+1}) = Ll/4.
func NumSpansAtLevel(l int) int {
	lo := mathx.Log2Exact(levelBounds[l])
	hi := mathx.Log2Exact(levelBounds[l+1])
	return hi - lo
}

// SpansAtLevel returns the distinct aligned spans of level l >= 1 in
// increasing order: 2*Ll, 4*Ll, ..., L_{l+1}.
func SpansAtLevel(l int) []int64 {
	return spanTable[l]
}

// spanTable precomputes SpansAtLevel for every level: the spans are a
// pure function of the constant tower bounds, and interval creation
// calls this on the reservation hot path. Callers must not mutate the
// returned slice.
var spanTable = func() [NumLevels][]int64 {
	var tbl [NumLevels][]int64
	for l := 0; l < NumLevels; l++ {
		spans := make([]int64, 0, NumSpansAtLevel(l))
		for s := 2 * levelBounds[l]; s <= levelBounds[l+1] && s > 0; s *= 2 {
			spans = append(spans, s)
		}
		tbl[l] = spans
	}
	return tbl
}()

// Aligned returns ALIGNED(W): a largest aligned window contained in W.
// When several largest aligned windows exist the leftmost is returned,
// making the reduction deterministic. The result's span is at least
// span(W)/4 (Section 5). Windows entirely at negative times have no
// aligned sub-window of span > ... alignment requires Start >= 0; the
// caller must supply windows with End > 0. Aligned panics if no aligned
// sub-window exists (possible only when W ⊆ (-inf, 1) misses slot 0).
func Aligned(w jobs.Window) jobs.Window {
	if w.Span() <= 0 {
		panic(fmt.Sprintf("align: Aligned of empty window %v", w))
	}
	// Try spans from the largest power of two <= span(W) downward. For
	// each candidate span s, the leftmost s-aligned start inside W is
	// AlignUp(W.Start, s); it fits iff start+s <= W.End.
	for s := mathx.FloorPow2(w.Span()); s >= 1; s /= 2 {
		start := mathx.AlignUp(mathx.MaxI64(w.Start, 0), s)
		if start+s <= w.End {
			return jobs.Window{Start: start, End: start + s}
		}
	}
	panic(fmt.Sprintf("align: window %v contains no aligned sub-window (negative times?)", w))
}

// EnclosingAligned returns the unique aligned window of the given span
// that contains timeslot t. span must be a power of two and t >= 0.
func EnclosingAligned(t jobs.Time, span int64) jobs.Window {
	if !mathx.IsPow2(span) {
		panic(fmt.Sprintf("align: EnclosingAligned span %d not a power of two", span))
	}
	if t < 0 {
		panic(fmt.Sprintf("align: EnclosingAligned of negative time %d", t))
	}
	start := mathx.AlignDown(t, span)
	return jobs.Window{Start: start, End: start + span}
}
