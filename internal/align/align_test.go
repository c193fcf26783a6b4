package align

import (
	"testing"
	"testing/quick"

	"repro/internal/jobs"
	"repro/internal/mathx"
	"repro/internal/workload"
)

func win(start, end int64) jobs.Window { return jobs.Window{Start: start, End: end} }

func TestLevelThresholds(t *testing.T) {
	if levelBounds[1] != 32 {
		t.Errorf("L1 = %d, want 32", levelBounds[1])
	}
	if levelBounds[2] != 256 {
		t.Errorf("L2 = %d, want 256 (2^{32/4})", levelBounds[2])
	}
	if levelBounds[3] != mathx.MaxSpan {
		t.Errorf("L3 = %d, want MaxSpan", levelBounds[3])
	}
	// The paper's recurrence: Ll = 4*lg(L_{l+1}) for l >= 1.
	if levelBounds[1] != 4*int64(mathx.Log2Exact(levelBounds[2])) {
		t.Error("L1 != 4*lg(L2)")
	}
}

func TestLevelOfSpan(t *testing.T) {
	cases := []struct {
		span int64
		want int
	}{
		{1, 0}, {2, 0}, {32, 0},
		{64, 1}, {128, 1}, {256, 1},
		{512, 2}, {1 << 20, 2}, {1 << 62, 2},
	}
	for _, c := range cases {
		if got := LevelOfSpan(c.span); got != c.want {
			t.Errorf("LevelOfSpan(%d) = %d, want %d", c.span, got, c.want)
		}
	}
}

func TestLevelOfSpanPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for span 48")
		}
	}()
	LevelOfSpan(48)
}

func TestIntervalSpan(t *testing.T) {
	if IntervalSpan(1) != 32 || IntervalSpan(2) != 256 {
		t.Errorf("IntervalSpan = %d,%d want 32,256", IntervalSpan(1), IntervalSpan(2))
	}
}

func TestNumSpansAtLevel(t *testing.T) {
	// Level 1: spans 64, 128, 256 -> 3 = lg(256)-lg(32).
	if got := NumSpansAtLevel(1); got != 3 {
		t.Errorf("NumSpansAtLevel(1) = %d, want 3", got)
	}
	// Equation 1: number of distinct spans <= lg(L_{l+1}) = Ll/4.
	if int64(NumSpansAtLevel(1)) > levelBounds[1]/4 {
		t.Error("Equation 1 violated at level 1")
	}
	if int64(NumSpansAtLevel(2)) > levelBounds[2]/4 {
		t.Error("Equation 1 violated at level 2")
	}
	got := SpansAtLevel(1)
	want := []int64{64, 128, 256}
	if len(got) != len(want) {
		t.Fatalf("SpansAtLevel(1) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpansAtLevel(1) = %v, want %v", got, want)
		}
	}
}

func TestAlignedExamples(t *testing.T) {
	cases := []struct {
		in   jobs.Window
		want jobs.Window
	}{
		{win(0, 8), win(0, 8)},   // already aligned
		{win(1, 9), win(4, 8)},   // span 8 -> aligned span 4
		{win(3, 4), win(3, 4)},   // span 1 always aligned
		{win(5, 12), win(8, 12)}, // span 7 -> span 4 at 8
		{win(1, 16), win(8, 16)}, // span 15 -> span 8
		{win(0, 1024), win(0, 1024)},
		{win(7, 8), win(7, 8)},
	}
	for _, c := range cases {
		if got := Aligned(c.in); got != c.want {
			t.Errorf("Aligned(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// Property (Lemma 10 precondition): ALIGNED(W) ⊆ W, is aligned, and has
// span >= span(W)/4.
func TestAlignedProperty(t *testing.T) {
	f := func(sRaw uint16, spanRaw uint16) bool {
		start := int64(sRaw)
		span := int64(spanRaw%4096) + 1
		w := win(start, start+span)
		a := Aligned(w)
		return a.IsAligned() && w.ContainsWindow(a) && 4*a.Span() >= w.Span()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Aligned is idempotent on aligned windows.
func TestAlignedIdempotent(t *testing.T) {
	f := func(sRaw uint16, e uint8) bool {
		span := int64(1) << (e % 12)
		start := mathx.AlignDown(int64(sRaw), span)
		w := win(start, start+span)
		return Aligned(w) == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEnclosingAligned(t *testing.T) {
	w := EnclosingAligned(37, 32)
	if w != win(32, 64) {
		t.Errorf("EnclosingAligned(37,32) = %v", w)
	}
	if !w.IsAligned() || !w.Contains(37) {
		t.Error("enclosing window not aligned/containing")
	}
	if got := EnclosingAligned(0, 1); got != win(0, 1) {
		t.Errorf("EnclosingAligned(0,1) = %v", got)
	}
}

// Property: any two aligned windows are laminar (the key structural fact
// behind the paper's Lemma 2).
func TestAlignedLaminarProperty(t *testing.T) {
	f := func(a uint16, ea uint8, b uint16, eb uint8) bool {
		sa := int64(1) << (ea % 10)
		sb := int64(1) << (eb % 10)
		wa := jobs.Window{Start: mathx.AlignDown(int64(a), sa)}
		wa.End = wa.Start + sa
		wb := jobs.Window{Start: mathx.AlignDown(int64(b), sb)}
		wb.End = wb.Start + sb
		// Equal, disjoint or nested.
		return !wa.Overlaps(wb) || wa.ContainsWindow(wb) || wb.ContainsWindow(wa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Lemma 2 measured: for a recursively aligned gamma-underallocated set,
// any aligned window W overlaps at most m|W|/gamma jobs of span <= |W|.
func TestLemma2CountingBound(t *testing.T) {
	f := func(seed int64) bool {
		g, err := workload.NewGenerator(workload.Config{
			Seed: seed, Gamma: 8, Horizon: 512, Steps: 120,
		})
		if err != nil {
			return false
		}
		for _, r := range g.Sequence() {
			_ = r
		}
		active := g.Active()
		// Every aligned window over the horizon.
		for span := int64(1); span <= 512; span *= 2 {
			for start := int64(0); start < 512; start += span {
				w := jobs.Window{Start: start, End: start + span}
				count := int64(0)
				for _, j := range active {
					if j.Window.Span() <= span && j.Window.Overlaps(w) {
						count++
					}
				}
				if count*8 > span { // m=1, gamma=8
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
