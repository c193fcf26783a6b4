package workload_test

import (
	"fmt"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// The generator guarantees γ-underallocation by construction: every
// prefix of the emitted sequence leaves the active set with at least a
// γ-factor of slack.
func ExampleGenerator() {
	g, err := workload.NewGenerator(workload.Config{
		Seed: 7, Gamma: 8, Horizon: 256, Steps: 100,
	})
	if err != nil {
		panic(err)
	}
	active := map[string]jobs.Job{}
	for i := 0; i < 100; i++ {
		r := g.Next()
		if r.Kind == jobs.Insert {
			active[r.Name] = jobs.Job{Name: r.Name, Window: r.Window}
		} else {
			delete(active, r.Name)
		}
	}
	js := make([]jobs.Job, 0, len(active))
	for _, j := range active {
		js = append(js, j)
	}
	fmt.Printf("still 8-underallocated after 100 requests: %v\n",
		feasible.Underallocated(js, 1, 8))
	// Output:
	// still 8-underallocated after 100 requests: true
}
