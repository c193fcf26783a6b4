// Quickstart: insert a handful of jobs with deadlines, delete one, and
// watch how few jobs the reallocating scheduler moves per request.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	realloc "repro"
)

func main() {
	// A single-machine scheduler with the full Theorem 1 stack:
	// alignment, trimming, and reservation-based pecking order.
	s := realloc.New()

	// Jobs are unit length; a window [a, d) means "run me in one of the
	// timeslots a..d-1". Windows need not be aligned or disjoint.
	inserts := []realloc.Job{
		{Name: "backup", Window: realloc.Win(0, 100)},
		{Name: "report", Window: realloc.Win(10, 30)},
		{Name: "build", Window: realloc.Win(10, 14)},
		{Name: "deploy", Window: realloc.Win(12, 13)}, // only slot 12 works
		{Name: "scan", Window: realloc.Win(0, 50)},
	}
	for _, j := range inserts {
		cost, err := s.Insert(j)
		if err != nil {
			log.Fatalf("insert %s: %v", j.Name, err)
		}
		fmt.Printf("insert %-7s window %-9v -> %d job(s) rescheduled\n",
			j.Name, j.Window, cost.Reallocations)
	}

	fmt.Println("\ncurrent schedule (jobs shown by first letter, '-' marks each window):")
	if err := render(os.Stdout, s.Jobs(), s.Assignment(), 1, renderOptions{
		From: 0, To: 40, ShowWindows: true,
	}); err != nil {
		log.Fatal(err)
	}

	cost, err := s.Delete("report")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndelete report -> %d job(s) rescheduled\n", cost.Reallocations)
	fmt.Printf("%d jobs remain active\n", s.Active())
}
