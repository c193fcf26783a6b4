package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/shard"
	"repro/internal/wire"
)

// TestKickStopsBufferedFrames: a shutdown kick stops intake even when
// whole frames already sit in the reader's buffer, where the kick's
// read deadline cannot reach them. Two Submits arrive in one write;
// the kick lands while the first is being enqueued, and the second
// must never be dispatched.
func TestKickStopsBufferedFrames(t *testing.T) {
	s := New(Config{NewScheduler: func(string) (*shard.Scheduler, error) { return nil, nil }})
	srv, cli := net.Pipe()
	defer cli.Close()
	tn := &tenant{name: "acme", q: make(chan item)} // unbuffered: enqueue waits for the test
	c := &conn{nc: srv, t: tn, out: make(chan wire.Frame, 4)}

	var burst []byte
	for i, name := range []string{"a", "b"} {
		var err error
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1), Req: jobs.InsertReq(name, 0, 8)}
		if burst, err = wire.AppendFrame(burst, &f); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		s.readLoop(c, nil)
		close(done)
	}()
	// The reader's first fill takes the whole write, so once the first
	// frame counts as inflight both frames are buffered, and the first
	// waits in its enqueue.
	go cli.Write(burst)
	for tn.inflight.Load() == 0 {
		runtime.Gosched()
	}
	c.kick()
	first := <-tn.q
	first.done(wire.CodeOK, "")
	select {
	case <-done:
	case it := <-tn.q:
		t.Fatalf("request %q was dispatched after the kick", it.req.Name)
	case <-time.After(5 * time.Second):
		t.Fatal("readLoop still running 5s after the kick")
	}
}
