package multi

import (
	"fmt"
	"testing"

	"repro/internal/jobs"
)

// BenchmarkWindowChurn measures one delete+insert pair over 8 machines
// at a steady population of 256 jobs in 24 windows (spans 16, 256 and
// 2048: one of each level): each step deletes a job and re-inserts its
// name in another window, so about half the deletes migrate a job and
// walk a member list. Names and windows are precomputed, so a steady
// state allocates nothing.
func BenchmarkWindowChurn(b *testing.B) {
	const machines, population = 8, 256
	var wins []jobs.Window
	for _, span := range []int64{16, 256, 2048} {
		for start := int64(0); start < 16384; start += 2048 {
			wins = append(wins, jobs.Window{Start: start, End: start + span})
		}
	}
	names := make([]string, population)
	for k := range names {
		names[k] = fmt.Sprintf("j%d", k)
	}
	winOf := func(k, round int) jobs.Window { return wins[(k*7+round*5)%len(wins)] }
	s := New(machines, coreFactory)
	for k, name := range names {
		if _, err := s.Insert(jobs.Job{Name: name, Window: winOf(k, 0)}); err != nil {
			b.Fatal(err)
		}
	}
	step := func(i int) {
		k := i % population
		if _, err := s.Delete(names[k]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Insert(jobs.Job{Name: names[k], Window: winOf(k, i/population+1)}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 4*population; i++ { // every table reaches its high-water mark
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(4*population + i)
	}
}
