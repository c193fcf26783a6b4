package main

import (
	"runtime"
	"time"
)

// pacer fires n events on a fixed schedule: event i is due at
// start + i*interval, whether or not earlier events have been answered.
// It is the open-loop load generator's only clock. fire must not block
// on the program under test; latency is counted from the due time, so a
// late pacer shows up in the latency and again, by itself, in late.
//
// The pacer spins on the clock up to the due time and sleeps only when
// it is more than spinSlack early. Measured on the 2-core box this was
// written on: sleeping to each due time added 0.45 ms to every sample,
// and a yielding spinner per tenant starved the server; one hard spinner
// kept lateness p99 under 0.6 ms.
type pacer struct {
	interval time.Duration
	n        int
	now      func() int64        // ns on a monotonic clock
	sleep    func(time.Duration) // coarse wait, may overshoot
}

const spinSlack = 2 * time.Millisecond

// run fires the events and returns how late each one was fired, in ns.
func (p *pacer) run(start int64, fire func(i int, due int64)) []int64 {
	late := make([]int64, p.n)
	for i := 0; i < p.n; i++ {
		due := start + int64(i)*int64(p.interval)
		now := p.now()
		for now < due {
			if wait := time.Duration(due - now); wait > spinSlack {
				p.sleep(wait - spinSlack)
			}
			now = p.now()
		}
		late[i] = now - due
		fire(i, due)
	}
	return late
}

// runPinned runs the pacer on an OS thread of its own, which the spin
// then owns for the length of the phase.
func (p *pacer) runPinned(start int64, fire func(i int, due int64)) []int64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	return p.run(start, fire)
}
