package server_test

import (
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/wire"
)

// countListener hands out connections that count their socket reads:
// the server's side of the wire, seen from outside the server.
type countListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{Conn: nc, reads: l.reads}, nil
}

type countConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// dialRaw opens a wire connection for tenant "acme" without the client
// package, so a test controls every byte it sends and reads.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	if _, err := wire.WriteFrame(nc, nil, &wire.Frame{Kind: wire.KindHello, Version: wire.Version, Tenant: "acme"}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	welcome, _, err := wire.ReadFrame(nc, nil)
	if err != nil || welcome.Kind != wire.KindWelcome {
		t.Fatalf("handshake: %v frame, err %v", welcome.Kind, err)
	}
	return nc
}

// TestServerReadsBurstBuffered: a burst of pipelined Submit frames
// that arrives in one write is read in a few socket reads, not two per
// frame (one header read and one payload read each).
func TestServerReadsBurstBuffered(t *testing.T) {
	const frames, maxReads = 256, 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var reads atomic.Int64
	s := server.New(server.Config{NewScheduler: newScheduler})
	go s.Serve(countListener{Listener: ln, reads: &reads})
	t.Cleanup(func() { s.Close() })

	nc := dialRaw(t, ln.Addr().String())
	var burst []byte
	for i := 0; i < frames; i++ {
		start := int64(i%64) * 64
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1),
			Req: jobs.InsertReq(fmt.Sprintf("job-%03d", i), start, start+64)}
		if burst, err = wire.AppendFrame(burst, &f); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatalf("write burst: %v", err)
	}
	var buf []byte
	for i := 0; i < frames; i++ {
		var ack wire.Frame
		if ack, buf, err = wire.ReadFrame(nc, buf); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if ack.Kind != wire.KindAck {
			t.Fatalf("ack %d is a %s frame", i, ack.Kind)
		}
	}
	n := reads.Load()
	t.Logf("server reads: %d for %d frames", n, frames)
	if n > maxReads {
		t.Fatalf("server made %d reads for a handshake and %d pipelined frames, want at most %d", n, frames, maxReads)
	}
}

// TestServerAcksBeforePartialFrame: one write carries a whole Submit
// and the first bytes of a second frame, and the client then stalls.
// The first request is acked anyway: the reader serves before a read
// that would wait for the rest of the unfinished frame, not only when
// its buffer is empty.
func TestServerAcksBeforePartialFrame(t *testing.T) {
	s := startServer(t, server.Config{})
	nc := dialRaw(t, s.Addr().String())
	var msg []byte
	for i, name := range []string{"a", "b"} {
		var err error
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1), Req: jobs.InsertReq(name, 0, 64)}
		if msg, err = wire.AppendFrame(msg, &f); err != nil {
			t.Fatalf("encode %s: %v", name, err)
		}
	}
	if _, err := nc.Write(msg[:len(msg)-3]); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	ack, _, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("no ack for the whole frame while the next one is unfinished: %v", err)
	}
	if ack.Kind != wire.KindAck || ack.ID != 1 || ack.Code != wire.CodeOK {
		t.Fatalf("got %s id %d code %s, want an OK ack for request 1", ack.Kind, ack.ID, ack.Code)
	}
}

// TestServerCloseStalledClient: a client that pipelines requests and
// never reads its acks cannot hold Close up. Each ack here carries a
// 4 KiB detail, so the acks fill both socket buffers; the server's
// write then times out and the connection ends.
func TestServerCloseStalledClient(t *testing.T) {
	s, err := server.Listen("127.0.0.1:0", server.Config{NewScheduler: newScheduler})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	nc := dialRaw(t, s.Addr().String())
	name := strings.Repeat("x", wire.MaxDetailLen)
	var msg []byte
	for i := 0; i < 256; i++ {
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1), Req: jobs.DeleteReq(fmt.Sprintf("%s-%03d", name, i))}
		if msg, err = wire.AppendFrame(msg, &f); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
	}
	// 8192 deletes of unknown names: 32 MiB of acks that nobody reads.
	go func() {
		for i := 0; i < 32; i++ {
			if _, err := nc.Write(msg); err != nil {
				return
			}
		}
	}()
	time.Sleep(time.Second)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close still blocked 30s after a client stopped reading its acks")
	}
}
