package main

import (
	"testing"
	"time"
)

// TestWindowedP99IgnoresOneStall: lat_p99_us is the median of the
// windows' p99, so a stall that fills one window's tail leaves it where
// the other four put it; a plain p99 over the run takes the stall.
func TestWindowedP99IgnoresOneStall(t *testing.T) {
	const perWindow = 1000
	var samples []int64
	for w := 0; w < latencyWindows; w++ {
		for i := 0; i < perWindow; i++ {
			v := int64(100 + i%10) // quiet: 100..109
			if w == 3 && i%5 == 0 {
				v = 50000 // a fifth of window 3 is stalled: over 1 % of the run
			}
			samples = append(samples, v)
		}
	}
	if got := windowedQuantile(samples, latencyWindows, 0.99); got != 109 {
		t.Errorf("windowed median p99 = %v, want 109", got)
	}
	if plain := quantile(sortedCopy(samples), 0.99); plain != 50000 {
		t.Errorf("plain p99 = %v, want the stall (50000): the test no longer shows the difference", plain)
	}
}

func TestWindowedQuantileFewSamples(t *testing.T) {
	if got := windowedQuantile([]int64{5, 1, 9}, latencyWindows, 0.99); got != 9 {
		t.Errorf("with fewer samples than windows got %v, want the plain quantile 9", got)
	}
	if got := windowedQuantile(nil, latencyWindows, 0.99); got != 0 {
		t.Errorf("no samples: got %v, want 0", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]int64{0.5: 5, 0.99: 10, 0.1: 1, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile %v = %d, want %d", q, got, want)
		}
	}
}

// TestBlockRates: a block's rate is its size over its own time, and
// drivers that run side by side add up block by block.
func TestBlockRates(t *testing.T) {
	bt := &blockTimer{size: 2}
	bt.start()
	for i := 0; i < 5; i++ { // two whole blocks, one completion left over
		bt.done()
	}
	if len(bt.rates) != 2 {
		t.Fatalf("5 completions in blocks of 2 gave %d blocks, want 2", len(bt.rates))
	}
	for _, r := range bt.rates {
		if r <= 0 || r > float64(2*time.Second/time.Nanosecond) {
			t.Errorf("block rate %v out of range", r)
		}
	}
	a := &blockTimer{rates: []float64{10, 20, 30}}
	b := &blockTimer{rates: []float64{1, 2}}
	if got := sumRates([]*blockTimer{a, b}); len(got) != 2 || got[0] != 11 || got[1] != 22 {
		t.Errorf("sumRates = %v, want [11 22]", got)
	}
}
