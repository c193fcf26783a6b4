package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/jobs"
)

// record writes an annotated JSONL trace; replay verifies a fresh
// scheduler reproduces exactly the recorded costs.
func Example_record() {
	reqs := []jobs.Request{
		jobs.InsertReq("a", 0, 64),
		jobs.InsertReq("b", 0, 64),
		jobs.DeleteReq("a"),
	}
	var buf bytes.Buffer
	if _, err := record(core.New(), reqs, &buf); err != nil {
		panic(err)
	}
	events, err := readEvents(&buf)
	if err != nil {
		panic(err)
	}
	if err := replay(core.New(), events); err != nil {
		panic(err)
	}
	fmt.Printf("replayed %d events, costs matched\n", len(events))
	// Output:
	// replayed 3 events, costs matched
}
