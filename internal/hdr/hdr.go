// Package hdr implements a fixed-size, allocation-free, HDR-style
// latency histogram: log-bucketed counters with a bounded relative
// error, safe for concurrent recording, and mergeable across shards.
//
// The value axis (nanoseconds, for latency) is covered by 32 linear
// sub-buckets per power of two, so any recorded value is off by at most
// 1/32 (~3.1%) of itself when read back through a quantile. Values
// below 32 are exact; values above ~2.4 hours clamp into the top
// bucket. The whole histogram is one flat array of atomic counters —
// Record is a couple of atomic adds with no allocation and no locking,
// which is what lets the shard dispatch hot path record every request
// without disturbing the zero-alloc budget it is measuring.
//
// Reading happens through Snapshot, a frozen copy with quantile, max
// and merge operations. Snapshots of independent histograms (one per
// shard, one per benchmark lane) merge associatively into the same
// totals as a single shared histogram would have recorded.
package hdr

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// subBits fixes the resolution: 1<<subBits linear sub-buckets per
	// octave, bounding the relative quantile error at 1/(1<<subBits).
	subBits  = 5
	subCount = 1 << subBits

	// maxExp is the last covered octave: values in [2^maxExp, 2^(maxExp+1))
	// still resolve; anything larger clamps to maxValue. 2^43 ns is
	// about 2.4 hours — far beyond any plausible request latency.
	maxExp   = 42
	maxValue = int64(1)<<(maxExp+1) - 1

	// nBuckets covers indices for exact values [0,32) plus one run of 32
	// sub-buckets for each octave subBits..maxExp.
	nBuckets = (maxExp - subBits + 2) * subCount
)

// Histogram is the concurrent write side. The zero value is NOT ready
// for use as a value (it is ~10KB and holds atomics — never copy it);
// use New and share the pointer.
type Histogram struct {
	counts [nBuckets]atomic.Uint64
	count  atomic.Uint64
	max    atomic.Int64
}

// New returns an empty histogram.
func New() *Histogram { return &Histogram{} }

// bucketOf maps a value to its bucket index. Negative values clamp to
// 0, values beyond maxValue to the top bucket.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v > maxValue {
		v = maxValue
	}
	if v < subCount {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBits
	return (k-subBits+1)*subCount + int(v>>uint(k-subBits)) - subCount
}

// bucketHigh is the largest value mapping to bucket i (the value a
// quantile reports for ranks landing in the bucket).
func bucketHigh(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	octave := i / subCount
	pos := i % subCount
	low := int64(subCount+pos) << uint(octave-1)
	return low + int64(1)<<uint(octave-1) - 1
}

// Record adds one observation. It is safe for any number of concurrent
// callers and performs no allocation — suitable for request hot paths.
//
//reallocvet:hotpath
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Reset zeroes the histogram. It must not race Record: callers
// quiesce writers first (benchmark harnesses between runs).
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.max.Store(0)
}

// Snapshot freezes the histogram into a copyable read-side view. Taken
// concurrently with writers it is weakly consistent (bucket counts are
// each atomically read, but not as one cut); quiesced, it is exact.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		counts: make([]uint64, nBuckets),
		count:  h.count.Load(),
		max:    h.max.Load(),
	}
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
	}
	return s
}

// Snapshot is a frozen histogram: plain data, freely copyable, with
// the read-side operations. The zero value is an empty snapshot; Merge
// grows it on first use.
type Snapshot struct {
	counts []uint64
	count  uint64
	max    int64
}

// Count returns the number of observations in the snapshot.
func (s Snapshot) Count() uint64 { return s.count }

// Max returns the largest recorded value (exact, not bucketed), or 0
// when empty.
func (s Snapshot) Max() int64 { return s.max }

// Quantile returns the q-th quantile (q in [0,1]) by nearest rank: the
// upper bound of the bucket holding the ceil(q*count)-th observation,
// clamped to the exact observed maximum. Empty snapshots return 0. The
// result overstates the exact sample quantile by at most 1/32 of it.
func (s Snapshot) Quantile(q float64) int64 {
	if s.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum < rank {
			continue
		}
		if cum >= s.count {
			// The rank falls in the last populated bucket, which also
			// holds the exact max — report it instead of the bucket
			// bound (this makes Quantile(1) exact, and keeps clamped
			// top-bucket observations honest).
			return s.max
		}
		return bucketHigh(i)
	}
	return s.max
}

// Merge folds o into s. Merging is commutative and associative: any
// merge order over a set of snapshots yields identical counts, and the
// result is indistinguishable from one histogram that recorded every
// underlying observation.
func (s *Snapshot) Merge(o Snapshot) {
	if o.count == 0 {
		return
	}
	if s.counts == nil {
		s.counts = make([]uint64, nBuckets)
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.count += o.count
	if o.max > s.max {
		s.max = o.max
	}
}
