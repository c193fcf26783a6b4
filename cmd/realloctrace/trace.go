package main

// The trace format: request sequences and per-request costs as JSON
// Lines, so experiment runs are reproducible artifacts — a recorded
// trace can be stored, diffed, and replayed against any scheduler.
// One JSON object per line:
//
//	{"op":"insert","name":"j1","start":0,"end":64}
//	{"op":"delete","name":"j1"}
//
// An annotated trace (written by record) adds the observed costs:
//
//	{"op":"insert","name":"j1","start":0,"end":64,"reallocs":1,"migrations":0}

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/jobs"
	"repro/internal/sched"
)

// event is one line of a trace: a request plus (optionally) its cost.
type event struct {
	Op    string `json:"op"`              // "insert" or "delete"
	Name  string `json:"name"`            // job name
	Start int64  `json:"start,omitempty"` // window start (insert only)
	End   int64  `json:"end,omitempty"`   // window end (insert only)

	Reallocs   *int `json:"reallocs,omitempty"`   // observed cost, if annotated
	Migrations *int `json:"migrations,omitempty"` // observed cost, if annotated
}

// fromRequest converts a request to an (unannotated) event.
func fromRequest(r jobs.Request) event {
	e := event{Name: r.Name}
	switch r.Kind {
	case jobs.Insert:
		e.Op = "insert"
		e.Start = r.Window.Start
		e.End = r.Window.End
	case jobs.Delete:
		e.Op = "delete"
	}
	return e
}

// request converts the event back to a request.
func (e event) request() (jobs.Request, error) {
	switch e.Op {
	case "insert":
		r := jobs.InsertReq(e.Name, e.Start, e.End)
		if err := r.Validate(); err != nil {
			return jobs.Request{}, err
		}
		return r, nil
	case "delete":
		r := jobs.DeleteReq(e.Name)
		return r, r.Validate()
	default:
		return jobs.Request{}, fmt.Errorf("trace: unknown op %q", e.Op)
	}
}

// writeTrace serializes requests as JSONL.
func writeTrace(w io.Writer, reqs []jobs.Request) error {
	enc := json.NewEncoder(w)
	for i, r := range reqs {
		if err := enc.Encode(fromRequest(r)); err != nil {
			return fmt.Errorf("trace: writing request %d: %w", i, err)
		}
	}
	return nil
}

// readTrace parses a JSONL trace into requests (cost annotations, if
// present, are ignored; use readEvents to keep them).
func readTrace(r io.Reader) ([]jobs.Request, error) {
	events, err := readEvents(r)
	if err != nil {
		return nil, err
	}
	out := make([]jobs.Request, 0, len(events))
	for i, e := range events {
		req, err := e.request()
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", i+1, err)
		}
		out = append(out, req)
	}
	return out, nil
}

// readEvents parses a JSONL trace preserving annotations. Blank lines
// and lines starting with '#' are skipped.
func readEvents(r io.Reader) ([]event, error) {
	var out []event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var e event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}

// record replays the requests against the scheduler, writing an
// annotated trace of every served request to w. It stops at the first
// scheduler error, returning how many requests were served.
func record(s sched.Scheduler, reqs []jobs.Request, w io.Writer) (int, error) {
	enc := json.NewEncoder(w)
	for i, r := range reqs {
		c, err := sched.Apply(s, r)
		if err != nil {
			return i, fmt.Errorf("trace: request %d (%s): %w", i, r, err)
		}
		e := fromRequest(r)
		re, mi := c.Reallocations, c.Migrations
		e.Reallocs, e.Migrations = &re, &mi
		if err := enc.Encode(e); err != nil {
			return i, fmt.Errorf("trace: writing request %d: %w", i, err)
		}
	}
	return len(reqs), nil
}

// replay runs an annotated trace against a scheduler and compares the
// observed costs with the recorded ones, returning the first mismatch.
// Unannotated events are replayed without comparison. This is the
// regression check for cost accounting.
func replay(s sched.Scheduler, events []event) error {
	for i, e := range events {
		r, err := e.request()
		if err != nil {
			return fmt.Errorf("trace: event %d: %w", i, err)
		}
		c, err := sched.Apply(s, r)
		if err != nil {
			return fmt.Errorf("trace: event %d (%s): %w", i, r, err)
		}
		if e.Reallocs != nil && *e.Reallocs != c.Reallocations {
			return fmt.Errorf("trace: event %d (%s): recorded %d reallocations, observed %d",
				i, r, *e.Reallocs, c.Reallocations)
		}
		if e.Migrations != nil && *e.Migrations != c.Migrations {
			return fmt.Errorf("trace: event %d (%s): recorded %d migrations, observed %d",
				i, r, *e.Migrations, c.Migrations)
		}
	}
	return nil
}
