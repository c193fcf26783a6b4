package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, k int) bool { return s[i] < s[k] })
	return s
}

// windowedQuantile splits samples, which are in on-clock order, into
// `windows` equal parts and returns the median of the parts' q-quantiles.
// One stall by a noisy neighbour lands in one window and so cannot move
// the result; a plain p99 over the whole run would take it in full.
func windowedQuantile(samples []int64, windows int, q float64) float64 {
	if len(samples) < windows {
		return float64(quantile(sortedCopy(samples), q))
	}
	per := make([]float64, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*len(samples)/windows, (w+1)*len(samples)/windows
		per[w] = float64(quantile(sortedCopy(samples[lo:hi]), q))
	}
	return median(per)
}

// latencyWindows is the number of on-clock windows lat_p99_us is the
// median over. ISSUE 11 filed five; over ten seeds of the served
// workloads fifteen spread a quarter less (22 % against 27–32 %). That is
// still too wide for a bound, so the metric is a per-layer diagnostic:
// README.md, "Why the latency tail has no bound".
const latencyWindows = 15
