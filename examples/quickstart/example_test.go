package main

import (
	"os"

	realloc "repro"
)

// render draws machines as rows and timeslots as columns.
func Example_render() {
	js := []realloc.Job{
		{Name: "web", Window: realloc.Window{Start: 0, End: 6}},
		{Name: "db", Window: realloc.Window{Start: 2, End: 8}},
	}
	asn := realloc.Assignment{
		"web": {Machine: 0, Slot: 1},
		"db":  {Machine: 1, Slot: 4},
	}
	_ = render(os.Stdout, js, asn, 2, renderOptions{From: 0, To: 8})
	// Output:
	// slots [0, 8)
	// machine 0 |.w......|
	// machine 1 |....d...|
}
