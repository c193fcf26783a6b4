package server_test

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

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

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	buf, err := wire.WriteFrame(nc, nil, &wire.Frame{Kind: wire.KindHello, Version: wire.Version, Tenant: "acme"})
	if err != nil {
		t.Fatalf("hello: %v", err)
	}
	welcome, buf, err := wire.ReadFrame(nc, buf)
	if err != nil || welcome.Kind != wire.KindWelcome {
		t.Fatalf("handshake: %v frame, err %v", welcome.Kind, err)
	}

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
