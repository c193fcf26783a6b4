// Package mathx provides the small integer-math substrate used throughout
// the reallocation scheduler: powers of two, binary logarithms, iterated
// logarithms (log*), and aligned division.
//
// All routines operate on int64 time coordinates and spans. Spans handled
// by the schedulers are powers of two no larger than 2^62, which keeps
// every intermediate computation inside int64 range.
package mathx

import "fmt"

// MaxSpan is the largest window span any scheduler in this repository
// accepts. It is 2^62, comfortably inside int64 while still allowing the
// third tower level (L3 = 2^64 in the paper) to be treated as unbounded.
const MaxSpan = int64(1) << 62

// IsPow2 reports whether v is a positive power of two.
func IsPow2(v int64) bool {
	return v > 0 && v&(v-1) == 0
}

// CeilPow2 returns the smallest power of two >= v. It panics if v is not
// positive or the result would exceed MaxSpan.
func CeilPow2(v int64) int64 {
	if v <= 0 {
		panic(fmt.Sprintf("mathx: CeilPow2 of non-positive value %d", v))
	}
	p := int64(1)
	for p < v {
		if p > MaxSpan/2 {
			panic(fmt.Sprintf("mathx: CeilPow2 overflow for %d", v))
		}
		p <<= 1
	}
	return p
}

// FloorPow2 returns the largest power of two <= v. It panics if v is not
// positive.
func FloorPow2(v int64) int64 {
	if v <= 0 {
		panic(fmt.Sprintf("mathx: FloorPow2 of non-positive value %d", v))
	}
	p := int64(1)
	for p <= v/2 {
		p <<= 1
	}
	return p
}

// Log2Floor returns floor(log2(v)). It panics if v is not positive.
func Log2Floor(v int64) int {
	if v <= 0 {
		panic(fmt.Sprintf("mathx: Log2Floor of non-positive value %d", v))
	}
	lg := 0
	for v > 1 {
		v >>= 1
		lg++
	}
	return lg
}

// Log2Exact returns log2(v) for a power of two v, and panics otherwise.
func Log2Exact(v int64) int {
	if !IsPow2(v) {
		panic(fmt.Sprintf("mathx: Log2Exact of non-power-of-two %d", v))
	}
	return Log2Floor(v)
}

// Log2Ceil returns ceil(log2(v)). It panics if v is not positive.
func Log2Ceil(v int64) int {
	if v <= 0 {
		panic(fmt.Sprintf("mathx: Log2Ceil of non-positive value %d", v))
	}
	lg := Log2Floor(v)
	if int64(1)<<uint(lg) < v {
		lg++
	}
	return lg
}

// LogStar returns the iterated binary logarithm of v: the number of times
// ceil(log2) must be applied before the value drops to at most 1.
// LogStar(1) = 0, LogStar(2) = 1, LogStar(4) = 2, LogStar(16) = 3,
// LogStar(65536) = 4. Values <= 1 return 0.
func LogStar(v int64) int {
	n := 0
	for v > 1 {
		v = int64(Log2Ceil(v))
		n++
	}
	return n
}

// FloorDiv returns floor(a/b) for b > 0, correct for negative a.
func FloorDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("mathx: FloorDiv by non-positive divisor %d", b))
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// CeilDiv returns ceil(a/b) for b > 0, correct for negative a.
func CeilDiv(a, b int64) int64 {
	return -FloorDiv(-a, b)
}

// AlignDown returns the largest multiple of align that is <= t.
// align must be positive.
func AlignDown(t, align int64) int64 {
	return FloorDiv(t, align) * align
}

// AlignUp returns the smallest multiple of align that is >= t.
// align must be positive.
func AlignUp(t, align int64) int64 {
	return CeilDiv(t, align) * align
}

// MaxI64 returns the larger of a and b.
func MaxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
