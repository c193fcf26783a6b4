package lowerbound_test

import (
	"fmt"

	"repro/internal/edf"
	"repro/internal/lowerbound"
)

// Lemma 12's toggle chain forces quadratic total cost on any scheduler.
func ExampleLemma12Sequence() {
	seq := lowerbound.Lemma12Sequence(32, 16)
	rec, err := lowerbound.MeasureDiffCosts(edf.New(1), seq)
	if err != nil {
		panic(err)
	}
	total := rec.Summary().TotalReallocations
	fmt.Printf("%d requests forced >= eta*cycles = %d moves: %v\n",
		len(seq), 32*16, total >= 32*16)
	// Output:
	// 96 requests forced >= eta*cycles = 512 moves: true
}
