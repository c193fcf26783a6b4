package pma

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestInsertOrdered(t *testing.T) {
	p := New()
	for i := int64(1); i <= 100; i++ {
		if _, err := p.Insert(i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if err := p.SelfCheck(); err != nil {
			t.Fatalf("after %d: %v", i, err)
		}
	}
	if p.Len() != 100 {
		t.Errorf("len = %d", p.Len())
	}
	keys := p.Keys()
	for i := range keys {
		if keys[i] != int64(i+1) {
			t.Fatalf("keys[%d] = %d", i, keys[i])
		}
	}
}

func TestInsertReverse(t *testing.T) {
	p := New()
	for i := int64(100); i >= 1; i-- {
		if _, err := p.Insert(i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := p.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 100 {
		t.Errorf("len = %d", p.Len())
	}
}

func TestRejections(t *testing.T) {
	p := New()
	if _, err := p.Insert(0); err == nil {
		t.Error("key 0 accepted")
	}
	if _, err := p.Insert(7); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(7); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestCapacityTracksN(t *testing.T) {
	p := New()
	for i := int64(1); i <= 1000; i++ {
		if _, err := p.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	if c := len(p.cells); c > 8*p.Len() {
		t.Errorf("capacity %d too large for %d keys", c, p.Len())
	}
}

// The reallocation-cost shape: amortized moves per insert grow like
// O(log² n) — polylogarithmic, not linear. Ascending inserts are the
// classic worst case.
func TestAmortizedMovesLogSquared(t *testing.T) {
	amortized := func(n int64) float64 {
		p := New()
		total := 0
		for i := int64(1); i <= n; i++ {
			moves, err := p.Insert(i)
			if err != nil {
				t.Fatal(err)
			}
			total += moves
		}
		return float64(total) / float64(n)
	}
	small, large := amortized(1024), amortized(8192)
	if small < 1 || large < 1 {
		t.Fatalf("amortized moves %.2f/%.2f suspiciously low", small, large)
	}
	// log²(8192)/log²(1024) = (13/10)² = 1.69: the 8x-larger run may cost
	// at most ~2.5x more per op if growth is polylogarithmic. A linear
	// shape would give ~8x.
	ratio := large / small
	if ratio > 3 {
		t.Errorf("amortized cost grew %.2fx for 8x n — faster than log² (small=%.1f large=%.1f)",
			ratio, small, large)
	}
	// And the absolute value stays within a generous polylog envelope.
	lg := float64(mathx.Log2Ceil(8192))
	if large > 16*lg*lg {
		t.Errorf("amortized moves %.1f exceed 16·log²(n) = %.1f", large, 16*lg*lg)
	}
}

// Property: inserts in random order, duplicates rejected, keep order
// and count.
func TestRandomChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New()
		live := map[int64]bool{}
		for step := 0; step < 300; step++ {
			key := rng.Int63n(500) + 1
			if _, err := p.Insert(key); (err != nil) != live[key] {
				return false
			}
			live[key] = true
			if p.SelfCheck() != nil {
				return false
			}
		}
		return p.Len() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
