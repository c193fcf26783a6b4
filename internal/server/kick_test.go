package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	realloc "repro"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// TestKickStopsBufferedFrames: a shutdown kick stops intake even when
// whole frames already sit in the reader's buffer, where the kick's
// read deadline cannot reach them. Two Submits arrive in one write;
// with a batch limit of one, the reader serves the first before it
// reads the second, and the kick lands while that serve waits for the
// tenant lock. The second must never be dispatched.
func TestKickStopsBufferedFrames(t *testing.T) {
	s := New(Config{NewScheduler: newTestScheduler, BatchLimit: 1})
	sc, _ := newTestScheduler("acme")
	defer sc.Close()
	srv, cli := net.Pipe()
	defer cli.Close()
	tn := &tenant{name: "acme", sched: sc}
	c := &conn{nc: srv, t: tn}

	var burst []byte
	for i, name := range []string{"a", "b"} {
		var err error
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1), Req: jobs.InsertReq(name, 0, 8)}
		if burst, err = wire.AppendFrame(burst, &f); err != nil {
			t.Fatal(err)
		}
	}
	written := make(chan []wire.Frame, 1)
	go func() {
		var got []wire.Frame
		for {
			f, _, err := wire.ReadFrame(cli, nil)
			if err != nil {
				written <- got
				return
			}
			got = append(got, f)
		}
	}()

	tn.mu.Lock() // parks the reader inside the first frame's serve
	done := make(chan struct{})
	go func() {
		s.readLoop(c, nil)
		close(done)
	}()
	// The reader's first fill takes the whole write, so once the first
	// frame counts as inflight both frames are buffered.
	go cli.Write(burst)
	for tn.inflight.Load() == 0 {
		runtime.Gosched()
	}
	c.kick()
	tn.mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("readLoop still running 5s after the kick")
	}
	srv.Close()

	got := <-written
	if len(got) != 1 || got[0].Kind != wire.KindAck || got[0].ID != 1 || got[0].Code != wire.CodeOK {
		t.Fatalf("server wrote %+v, want exactly one OK ack for request 1", got)
	}
	snap := sc.Snapshot()
	if len(snap.Jobs) != 1 || snap.Jobs[0].Name != "a" {
		t.Fatalf("scheduler holds %v, want only job a", snap.Jobs)
	}
}

func newTestScheduler(string) (*realloc.Sharded, error) {
	return realloc.NewSharded(realloc.WithMachines(2)), nil
}
