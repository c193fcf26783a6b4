package main

import (
	"testing"
	"time"
)

// TestPacerLateness: with a clock only the test moves, lateness is the
// distance from each event's own due time, so an event that takes three
// intervals to fire makes the next ones late by what is left of it, not
// by nothing (which is what timing from the previous send would show).
func TestPacerLateness(t *testing.T) {
	var now int64
	p := pacer{
		interval: 100,
		n:        6,
		now:      func() int64 { now += 10; return now }, // every look at the clock costs 10
		sleep:    func(d time.Duration) { now += int64(d) },
	}
	var dues []int64
	late := p.run(1000, func(i int, due int64) {
		dues = append(dues, due)
		if i == 1 {
			now += 300 // a stall inside the send
		}
	})
	for i, due := range dues {
		if want := int64(1000 + 100*i); due != want {
			t.Errorf("event %d due at %d, want %d", i, due, want)
		}
	}
	// Event 1 fires at 1100 and stalls to 1400. Events 2, 3 and 4 were due
	// at 1200, 1300 and 1400: each is late by the stall that is left, plus
	// the one look at the clock that finds it due.
	want := []int64{0, 0, 210, 120, 30, 0}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("event %d late by %d, want %d (all: %v)", i, late[i], want[i], late)
			break
		}
	}
}

// TestPacerSleepsOnlyWhenFarAhead: the pacer spins to the due time and
// hands the thread back only when it is more than spinSlack early.
func TestPacerSleepsOnlyWhenFarAhead(t *testing.T) {
	var now int64
	var slept []time.Duration
	p := pacer{
		interval: 10 * time.Millisecond,
		n:        3,
		now:      func() int64 { now += 1000; return now },
		sleep:    func(d time.Duration) { slept = append(slept, d); now += int64(d) },
	}
	p.run(0, func(int, int64) {})
	if len(slept) != 2 {
		t.Fatalf("slept %d times for two 10 ms gaps, want 2: %v", len(slept), slept)
	}
	for _, d := range slept {
		if d <= 0 || d > 10*time.Millisecond-spinSlack {
			t.Errorf("slept %v, want to wake at least %v before the due time", d, spinSlack)
		}
	}

	slept = nil
	p.interval = time.Millisecond
	p.run(now, func(int, int64) {})
	if len(slept) != 0 {
		t.Errorf("slept %v with 1 ms gaps, want a pure spin", slept)
	}
}

// TestPacerNeverWaitsOnAcks: nothing answers the requests and nothing
// drains the queue they are handed to, and the pacer still fires all of
// them on schedule.
func TestPacerNeverWaitsOnAcks(t *testing.T) {
	const n = 200
	start := time.Now()
	p := pacer{
		interval: 50 * time.Microsecond,
		n:        n,
		now:      func() int64 { return int64(time.Since(start)) },
		sleep:    time.Sleep,
	}
	unanswered := make(chan int, n) // sized to the phase, as servedRound sizes its queues
	done := make(chan []int64, 1)
	go func() { done <- p.run(0, func(i int, _ int64) { unanswered <- i }) }()
	select {
	case late := <-done:
		if len(late) != n || len(unanswered) != n {
			t.Errorf("fired %d of %d events, queued %d", len(late), n, len(unanswered))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pacer blocked with no ack arriving")
	}
}
