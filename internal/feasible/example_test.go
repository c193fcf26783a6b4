package feasible_test

import (
	"fmt"

	"repro/internal/feasible"
	"repro/internal/jobs"
)

// EDF decides feasibility exactly for unit jobs.
func ExampleEDF() {
	js := []jobs.Job{
		{Name: "a", Window: jobs.Window{Start: 0, End: 2}},
		{Name: "b", Window: jobs.Window{Start: 0, End: 2}},
		{Name: "c", Window: jobs.Window{Start: 0, End: 2}},
	}
	_, okOne := feasible.EDF(js, 1)
	_, okTwo := feasible.EDF(js, 2)
	fmt.Printf("3 jobs, 2 slots, 1 machine: feasible=%v\n", okOne)
	fmt.Printf("3 jobs, 2 slots, 2 machines: feasible=%v\n", okTwo)
	// Output:
	// 3 jobs, 2 slots, 1 machine: feasible=false
	// 3 jobs, 2 slots, 2 machines: feasible=true
}

// Underallocated checks the paper's slack condition (Lemma 2 counting).
func ExampleUnderallocated() {
	js := []jobs.Job{
		{Name: "a", Window: jobs.Window{Start: 0, End: 16}},
		{Name: "b", Window: jobs.Window{Start: 0, End: 16}},
	}
	fmt.Println(feasible.Underallocated(js, 1, 8)) // 2*8 <= 16
	fmt.Println(feasible.Underallocated(js, 1, 9)) // 2*9 > 16
	// Output:
	// true
	// false
}
