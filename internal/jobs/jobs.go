// Package jobs defines the job, window, and request model shared by every
// scheduler in this repository.
//
// A job is a unit-length task with an integer window [Arrival, Deadline):
// it must be assigned exactly one timeslot t with Arrival <= t < Deadline.
// The window's span is Deadline - Arrival, i.e. the number of candidate
// timeslots, matching the paper's "the window W comprises |W| timeslots".
package jobs

import (
	"fmt"

	"repro/internal/mathx"
)

// Time is an integer timeslot coordinate.
type Time = int64

// Window is a half-open interval [Start, End) of timeslots.
type Window struct {
	Start Time
	End   Time
}

// Validate reports whether the window is well-formed.
func (w Window) Validate() error {
	if w.End <= w.Start {
		return fmt.Errorf("jobs: empty window [%d, %d)", w.Start, w.End)
	}
	if w.Span() > mathx.MaxSpan {
		return fmt.Errorf("jobs: window [%d, %d) span %d exceeds max %d",
			w.Start, w.End, w.Span(), mathx.MaxSpan)
	}
	return nil
}

// Span returns the number of timeslots in the window.
func (w Window) Span() int64 { return w.End - w.Start }

// Contains reports whether timeslot t lies inside the window.
func (w Window) Contains(t Time) bool { return w.Start <= t && t < w.End }

// ContainsWindow reports whether o is fully contained in w.
func (w Window) ContainsWindow(o Window) bool {
	return w.Start <= o.Start && o.End <= w.End
}

// Overlaps reports whether the two windows share at least one timeslot.
func (w Window) Overlaps(o Window) bool {
	return w.Start < o.End && o.Start < w.End
}

// IsAligned reports whether the window is aligned in the paper's sense:
// its span is a power of two and its start is a multiple of the span.
func (w Window) IsAligned() bool {
	s := w.Span()
	return mathx.IsPow2(s) && w.Start%s == 0 && w.Start >= 0
}

// String renders the window as [start,end).
func (w Window) String() string { return fmt.Sprintf("[%d,%d)", w.Start, w.End) }

// Job is a unit-length job with a name and a window.
type Job struct {
	Name   string
	Window Window
}

// Validate reports whether the job is well-formed.
func (j Job) Validate() error {
	if j.Name == "" {
		return fmt.Errorf("jobs: job with empty name")
	}
	return j.Window.Validate()
}

// RequestKind distinguishes the two request types of the paper's model.
type RequestKind uint8

const (
	// Insert corresponds to <InsertJob, name, arrival, deadline>.
	Insert RequestKind = iota
	// Delete corresponds to <DeleteJob, name>.
	Delete
)

func (k RequestKind) String() string {
	switch k {
	case Insert:
		return "insert"
	case Delete:
		return "delete"
	default:
		return fmt.Sprintf("RequestKind(%d)", uint8(k))
	}
}

// Request is one element of an on-line execution.
type Request struct {
	Kind   RequestKind
	Name   string
	Window Window // meaningful only for Insert
}

// InsertReq builds an insert request for the window [start, end).
func InsertReq(name string, start, end Time) Request {
	return Request{Kind: Insert, Name: name, Window: Window{Start: start, End: end}}
}

// DeleteReq builds a delete request.
func DeleteReq(name string) Request {
	return Request{Kind: Delete, Name: name}
}

// String renders the request compactly.
func (r Request) String() string {
	if r.Kind == Insert {
		return fmt.Sprintf("insert %s %s", r.Name, r.Window)
	}
	return fmt.Sprintf("delete %s", r.Name)
}

// Validate reports whether the request is well-formed.
func (r Request) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("jobs: request with empty name")
	}
	if r.Kind == Insert {
		return r.Window.Validate()
	}
	if r.Kind != Delete {
		return fmt.Errorf("jobs: unknown request kind %d", r.Kind)
	}
	return nil
}

// Placement records where a job is scheduled: a machine index and a slot.
type Placement struct {
	Machine int
	Slot    Time
}

// Assignment is a full snapshot of a schedule: job name -> placement.
type Assignment map[string]Placement

// Clone returns a deep copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Diff returns the number of jobs present in both assignments whose
// placement differs (moved), and the number of those whose machine
// differs (migrated). Jobs present in only one assignment are ignored.
func (a Assignment) Diff(b Assignment) (moved, migrated int) {
	for name, pa := range a {
		pb, ok := b[name]
		if !ok {
			continue
		}
		if pa != pb {
			moved++
		}
		if pa.Machine != pb.Machine {
			migrated++
		}
	}
	return moved, migrated
}
