package client

import (
	"bufio"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/wire"
)

type brokenWriter struct{}

func (brokenWriter) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }

// TestFlushFailurePoisons: a flush that fails while the read side is
// still up (the server reads but never answers) poisons the client on
// its own. The queued submit's Wait and every later call return
// ErrClosed; without the flusher's poison the Wait would hang.
func TestFlushFailurePoisons(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, buf, err := wire.ReadFrame(nc, nil); err == nil {
			wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindWelcome, Shards: 1, Machines: 4})
		}
		io.Copy(io.Discard, nc)
	}()
	c, err := Dial(ln.Addr().String(), "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.wmu.Lock()
	c.bw = bufio.NewWriter(brokenWriter{})
	c.wmu.Unlock()

	p, err := c.SubmitAsync(jobs.InsertReq("job", 0, 8), 0)
	if err != nil {
		t.Fatalf("SubmitAsync = %v, want the frame queued", err)
	}
	res := make(chan error, 1)
	go func() { res <- p.Wait() }()
	select {
	case err := <-res:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Wait after a failed flush = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not resolve after the flush failed")
	}
	if _, err := c.SubmitAsync(jobs.InsertReq("after", 0, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("SubmitAsync after a failed flush = %v, want ErrClosed", err)
	}
	if err := c.Drain(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after a failed flush = %v, want ErrClosed", err)
	}
}
