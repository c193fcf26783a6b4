package hdr

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// exactQuantile is the sort-the-samples oracle: nearest-rank, the same
// rank convention Snapshot.Quantile uses.
func exactQuantile(sorted []int64, q float64) int64 {
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

// checkAgainstOracle records samples and asserts every quantile of the
// histogram brackets the exact sample quantile within the documented
// error bound: exact <= hist <= exact + max(1, exact/32).
func checkAgainstOracle(t *testing.T, name string, samples []int64) {
	t.Helper()
	h := New()
	for _, v := range samples {
		h.Record(v)
	}
	snap := h.Snapshot()
	if got, want := snap.Count(), uint64(len(samples)); got != want {
		t.Fatalf("%s: count %d, want %d", name, got, want)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	for _, v := range sorted {
		if v < 0 {
			t.Fatalf("%s: oracle comparison needs non-negative samples", name)
		}
	}
	if got, want := snap.Max(), sorted[len(sorted)-1]; got != want {
		t.Errorf("%s: max %d, want exact %d", name, got, want)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		exact := exactQuantile(sorted, q)
		got := snap.Quantile(q)
		slack := exact / 32
		if slack < 1 {
			slack = 1
		}
		if got < exact || got > exact+slack {
			t.Errorf("%s: q%.4f = %d, exact %d (allowed [%d, %d])",
				name, q, got, exact, exact, exact+slack)
		}
	}
}

// TestQuantileDifferential drives the histogram against the exact
// oracle across adversarial distributions.
func TestQuantileDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))

	single := []int64{123456}
	constant := make([]int64, 1000)
	for i := range constant {
		constant[i] = 777
	}
	uniform := make([]int64, 20000)
	for i := range uniform {
		uniform[i] = rng.Int63n(5_000_000)
	}
	// Bimodal: a fast mode around 5us and a slow mode around 80ms.
	bimodal := make([]int64, 20000)
	for i := range bimodal {
		if rng.Intn(100) < 90 {
			bimodal[i] = 4000 + rng.Int63n(2000)
		} else {
			bimodal[i] = 70_000_000 + rng.Int63n(20_000_000)
		}
	}
	// Heavy tail: Pareto-ish, alpha ~1.2, spanning 6+ decades.
	heavy := make([]int64, 20000)
	for i := range heavy {
		u := rng.Float64()
		if u < 1e-9 {
			u = 1e-9
		}
		heavy[i] = int64(1000 * math.Pow(u, -1/1.2))
	}
	// Tiny values exercise the exact sub-32 buckets.
	tiny := make([]int64, 500)
	for i := range tiny {
		tiny[i] = rng.Int63n(40)
	}

	for name, samples := range map[string][]int64{
		"single": single, "constant": constant, "uniform": uniform,
		"bimodal": bimodal, "heavy-tail": heavy, "tiny": tiny,
	} {
		checkAgainstOracle(t, name, samples)
	}
}

func TestRecordEdgeCases(t *testing.T) {
	h := New()
	h.Record(-5) // clamps to 0
	h.Record(0)
	h.Record(maxValue)
	h.Record(maxValue + 100) // clamps into the top bucket
	snap := h.Snapshot()
	if snap.Count() != 4 {
		t.Fatalf("count %d, want 4", snap.Count())
	}
	if q := snap.Quantile(0); q != 0 {
		t.Errorf("q0 = %d, want 0", q)
	}
	if q := snap.Quantile(1); q != maxValue+100 {
		// Quantile clamps to the exact observed max.
		t.Errorf("q1 = %d, want %d", q, maxValue+100)
	}
	var empty Snapshot
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Error("empty snapshot must read as all zeros")
	}
}

// TestBucketMapping pins the bucket geometry: every value maps into a
// bucket whose bounds contain it, and bucket widths respect the 1/32
// relative-error contract.
func TestBucketMapping(t *testing.T) {
	values := []int64{0, 1, 31, 32, 33, 63, 64, 127, 128, 1000, 1 << 20, 1<<40 + 12345, maxValue}
	for _, v := range values {
		i := bucketOf(v)
		hi := bucketHigh(i)
		if v > hi {
			t.Errorf("value %d maps to bucket %d with high %d < value", v, i, hi)
		}
		if i+1 < nBuckets {
			if lowNext := bucketHigh(i + 1); lowNext <= hi {
				t.Errorf("bucket %d high %d not below bucket %d high %d", i, hi, i+1, lowNext)
			}
		}
		if slack := hi - v; v >= 32 && slack > v/16 {
			t.Errorf("value %d: bucket slack %d exceeds v/16", v, slack)
		}
	}
	if got := bucketOf(maxValue); got != nBuckets-1 {
		t.Errorf("maxValue bucket %d, want last (%d)", got, nBuckets-1)
	}
}

// TestMergeAssociativity: merging per-part snapshots — in any grouping
// and order — equals recording everything into one histogram.
func TestMergeAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := make([][]int64, 3)
	whole := New()
	for p := range parts {
		n := 1000 + rng.Intn(2000)
		parts[p] = make([]int64, n)
		for i := range parts[p] {
			v := rng.Int63n(10_000_000)
			parts[p][i] = v
			whole.Record(v)
		}
	}
	snaps := make([]Snapshot, 3)
	for p, vs := range parts {
		h := New()
		for _, v := range vs {
			h.Record(v)
		}
		snaps[p] = h.Snapshot()
	}
	merge := func(order ...int) Snapshot {
		var acc Snapshot
		for _, i := range order {
			acc.Merge(snaps[i])
		}
		return acc
	}
	left := merge(0, 1, 2)
	right := merge(2, 1, 0)
	mid := merge(1, 0, 2)
	want := whole.Snapshot()
	for name, got := range map[string]Snapshot{"left": left, "right": right, "mid": mid} {
		if got.Count() != want.Count() || got.Max() != want.Max() {
			t.Fatalf("%s merge: count/max diverge from single-histogram recording", name)
		}
		for i := range want.counts {
			if got.counts[i] != want.counts[i] {
				t.Fatalf("%s merge: bucket %d = %d, want %d", name, i, got.counts[i], want.counts[i])
			}
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if got.Quantile(q) != want.Quantile(q) {
				t.Fatalf("%s merge: q%.3f = %d, want %d", name, q, got.Quantile(q), want.Quantile(q))
			}
		}
	}
	// Merging an empty snapshot is the identity.
	before := left.Quantile(0.99)
	left.Merge(Snapshot{})
	if left.Quantile(0.99) != before {
		t.Error("merging an empty snapshot changed the histogram")
	}
}

// TestConcurrentRecord hammers one histogram from many goroutines and
// checks nothing is lost (run under -race in CI).
func TestConcurrentRecord(t *testing.T) {
	h := New()
	const goroutines = 8
	const perG = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				h.Record(rng.Int63n(1_000_000))
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if got, want := snap.Count(), uint64(goroutines*perG); got != want {
		t.Fatalf("count %d, want %d (lost updates)", got, want)
	}
	var sum uint64
	for _, c := range snap.counts {
		sum += c
	}
	if sum != snap.Count() {
		t.Fatalf("bucket sum %d != count %d", sum, snap.Count())
	}
	if snap.Quantile(1) != snap.Max() {
		t.Errorf("q1 %d != max %d", snap.Quantile(1), snap.Max())
	}
}

// TestRecordAllocFree pins the zero-allocation contract of the hot
// path.
func TestRecordAllocFree(t *testing.T) {
	h := New()
	if allocs := testing.AllocsPerRun(1000, func() { h.Record(12345) }); allocs != 0 {
		t.Errorf("Record allocates %.1f objects/op, want 0", allocs)
	}
}

func TestReset(t *testing.T) {
	h := New()
	for i := int64(0); i < 100; i++ {
		h.Record(i * 1000)
	}
	h.Reset()
	if snap := h.Snapshot(); snap.Count() != 0 || snap.Max() != 0 || snap.Quantile(0.99) != 0 {
		t.Error("reset histogram must read empty")
	}
}

func BenchmarkRecord(b *testing.B) {
	h := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i) * 37 % 5_000_000)
	}
}

func BenchmarkRecordParallel(b *testing.B) {
	h := New()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			v = (v*2862933555777941757 + 3037000493) % 5_000_000
			if v < 0 {
				v = -v
			}
			h.Record(v)
		}
	})
}
