package align_test

import (
	"fmt"

	"repro/internal/align"
	"repro/internal/jobs"
)

// ALIGNED(W) keeps at least a quarter of any window (Section 5).
func ExampleAligned() {
	w := jobs.Window{Start: 3, End: 30} // span 27, unaligned
	a := align.Aligned(w)
	fmt.Printf("ALIGNED(%v) = %v (span %d >= %d/4)\n", w, a, a.Span(), w.Span())
	// Output:
	// ALIGNED([3,30)) = [8,16) (span 8 >= 27/4)
}

// Levels partition spans by the tower thresholds L1=32, L2=256.
func ExampleLevelOfSpan() {
	for _, span := range []int64{8, 32, 64, 256, 4096} {
		fmt.Printf("span %4d -> level %d\n", span, align.LevelOfSpan(span))
	}
	// Output:
	// span    8 -> level 0
	// span   32 -> level 0
	// span   64 -> level 1
	// span  256 -> level 1
	// span 4096 -> level 2
}
