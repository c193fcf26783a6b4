package client_test

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	realloc "repro"
	"repro/client"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// script is a hand-driven fake server: it accepts one connection,
// performs the Hello/Welcome handshake, and then runs fn over the
// framed connection. It exists so tests can drop the connection at an
// exact point in the pipeline — something a real server won't do on
// demand.
func script(t *testing.T, fn func(nc net.Conn, buf []byte)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		f, buf, err := wire.ReadFrame(nc, nil)
		if err != nil || f.Kind != wire.KindHello {
			return
		}
		buf, err = wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindWelcome, Shards: 1, Machines: 4})
		if err != nil {
			return
		}
		fn(nc, buf)
	}()
	return ln.Addr().String()
}

// TestConnDropMidPipeline: with dozens of submits in flight, the
// server dies after acking only a few. Every unresolved Pending must
// settle with an error that matches the unified ErrClosed sentinel —
// through both the client's alias and the public realloc package —
// and no goroutine may leak.
func TestConnDropMidPipeline(t *testing.T) {
	const total, acked = 64, 8
	die := make(chan struct{})
	addr := script(t, func(nc net.Conn, buf []byte) {
		for i := 0; i < acked; i++ {
			f, b, err := wire.ReadFrame(nc, buf)
			buf = b
			if err != nil {
				t.Errorf("server read %d: %v", i, err)
				return
			}
			if buf, err = wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeOK}); err != nil {
				return
			}
		}
		// Die only once the client has consumed the acks: closing with
		// unread submits in the socket resets the connection, and a
		// reset can overtake acks the client has not read yet.
		<-die
	})

	base := runtime.NumGoroutine()
	c, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	pendings := make([]*client.Pending, 0, total)
	for i := 0; i < total; i++ {
		p, err := c.SubmitAsync(jobs.InsertReq("job", jobs.Time(i*16), jobs.Time(i*16+8)), 0)
		if err != nil {
			// The drop raced the submit: the error must already be typed.
			if !errors.Is(err, client.ErrClosed) {
				t.Fatalf("submit %d failed untyped: %v", i, err)
			}
			continue
		}
		pendings = append(pendings, p)
	}

	okCount := 0
	for i, p := range pendings {
		if i == acked {
			close(die) // the rest of the pipeline is still in flight
		}
		err := p.Wait()
		switch {
		case err == nil:
			okCount++
		case errors.Is(err, client.ErrClosed) && errors.Is(err, realloc.ErrClosed):
			// The unified vocabulary: one sentinel, visible through
			// both import paths.
		default:
			t.Fatalf("pending %d resolved untyped: %v", i, err)
		}
	}
	if okCount != acked {
		t.Fatalf("%d requests acked OK, want %d", okCount, acked)
	}

	// The client is poisoned: future calls fail with the same sentinel.
	if err := c.Submit(jobs.InsertReq("after", 0, 8)); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("submit after drop = %v, want ErrClosed", err)
	}
	c.Close()

	// No goroutine leaks: the read loop and everything it spawned are
	// gone once Close returns (poll briefly; the runtime needs a
	// moment to retire exiting goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDialOptionsDeadlineAndVerdicts: SubmitDeadline puts its timeout
// on the wire, and server verdict codes decode to the unified
// sentinels.
func TestDialOptionsDeadlineAndVerdicts(t *testing.T) {
	gotDeadline := make(chan uint64, 1)
	addr := script(t, func(nc net.Conn, buf []byte) {
		f, buf, err := wire.ReadFrame(nc, buf)
		if err != nil {
			return
		}
		gotDeadline <- f.DeadlineUS
		if buf, err = wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeOK}); err != nil {
			return
		}
		if f, buf, err = wire.ReadFrame(nc, buf); err != nil {
			return
		}
		wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeOverload, Detail: "busy"})
	})

	c, err := client.Dial(addr, "acme", client.WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	if err := c.SubmitDeadline(jobs.InsertReq("a", 0, 8), 250*time.Millisecond); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if us := <-gotDeadline; us != 250_000 {
		t.Fatalf("wire deadline = %dus, want 250000", us)
	}
	err = c.Submit(jobs.InsertReq("b", 16, 24))
	if !errors.Is(err, client.ErrOverload) || !errors.Is(err, realloc.ErrOverload) {
		t.Fatalf("overload verdict = %v, want the unified ErrOverload", err)
	}
}

// TestDialRedialAndFallback: a dead primary with a live fallback
// connects within one round; an all-dead list fails after the
// configured attempts with a real error.
func TestDialRedialAndFallback(t *testing.T) {
	// A dead address: bind, grab the port, close.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	live := script(t, func(nc net.Conn, buf []byte) {
		f, buf, err := wire.ReadFrame(nc, buf)
		if err != nil {
			return
		}
		wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeOK})
	})

	c, err := client.Dial(deadAddr, "acme",
		client.WithDialTimeout(2*time.Second),
		client.WithFallback(live))
	if err != nil {
		t.Fatalf("dial with live fallback: %v", err)
	}
	if err := c.Submit(jobs.InsertReq("a", 0, 8)); err != nil {
		t.Fatalf("submit via fallback: %v", err)
	}
	c.Close()

	if _, err := client.Dial(deadAddr, "acme",
		client.WithDialTimeout(time.Second),
		client.WithRedial(3, time.Millisecond)); err == nil {
		t.Fatal("dial of a dead address succeeded")
	}
}

// ackAll is a script body that acks every Submit it reads with OK
// until the connection ends.
func ackAll(nc net.Conn, buf []byte) {
	for {
		f, b, err := wire.ReadFrame(nc, buf)
		if err != nil {
			return
		}
		if buf, err = wire.WriteFrame(nc, b, &wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeOK}); err != nil {
			return
		}
	}
}

// waitWithin resolves p or fails the test after d: a Pending that
// never resolves is the bug these tests look for.
func waitWithin(t *testing.T, p *client.Pending, d time.Duration) error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- p.Wait() }()
	select {
	case err := <-res:
		return err
	case <-time.After(d):
		t.Fatalf("Pending did not resolve within %v", d)
		return nil
	}
}

// TestSubmitAsyncLoneIsFlushed: one SubmitAsync with no later call to
// push it out is still written and acked, so the flusher cannot miss
// the kick of a submit that found the buffer clean.
func TestSubmitAsyncLoneIsFlushed(t *testing.T) {
	c, err := client.Dial(script(t, ackAll), "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		p, err := c.SubmitAsync(jobs.InsertReq("job", 0, 8), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := waitWithin(t, p, 5*time.Second); err != nil {
			t.Fatalf("lone submit %d = %v, want OK", i, err)
		}
	}
}

// TestCloseAfterUnwaitedSubmits: Close right after a burst of
// unwaited SubmitAsyncs resolves every Pending, with an ack or
// ErrClosed; none hangs.
func TestCloseAfterUnwaitedSubmits(t *testing.T) {
	const n = 200
	c, err := client.Dial(script(t, ackAll), "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	pendings := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.SubmitAsync(jobs.InsertReq("job", jobs.Time(i*16), jobs.Time(i*16+8)), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pendings = append(pendings, p)
	}
	c.Close()
	for i, p := range pendings {
		if err := waitWithin(t, p, 5*time.Second); err != nil && !errors.Is(err, client.ErrClosed) {
			t.Fatalf("pending %d after Close = %v, want an ack or ErrClosed", i, err)
		}
	}
}

// TestSubmitAsyncAfterDropFails: once the server has dropped the
// connection, the failure reaches later calls. A submit queued after
// the drop resolves with ErrClosed through Wait (whether the flusher's
// write or the read loop sees the drop first), and every later
// SubmitAsync returns ErrClosed itself.
func TestSubmitAsyncAfterDropFails(t *testing.T) {
	dropped := make(chan struct{})
	addr := script(t, func(nc net.Conn, buf []byte) {
		nc.(*net.TCPConn).SetLinger(0) // drop with a reset, not a clean close
		nc.Close()
		close(dropped)
	})
	c, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	<-dropped

	var queued []*client.Pending
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, err := c.SubmitAsync(jobs.InsertReq("job", 0, 8), 0)
		if err != nil {
			if !errors.Is(err, client.ErrClosed) {
				t.Fatalf("submit after drop = %v, want ErrClosed", err)
			}
			break
		}
		queued = append(queued, p)
		if time.Now().After(deadline) {
			t.Fatal("SubmitAsync still succeeds 5s after the server dropped the connection")
		}
		time.Sleep(time.Millisecond)
	}
	for i, p := range queued {
		if err := waitWithin(t, p, 5*time.Second); !errors.Is(err, client.ErrClosed) {
			t.Fatalf("pending %d queued after the drop = %v, want ErrClosed", i, err)
		}
	}
	if _, err := c.SubmitAsync(jobs.InsertReq("after", 0, 8), 0); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("later submit = %v, want ErrClosed", err)
	}
}

// TestCloseFlushesQueuedSubmits: Close writes out every submit that
// SubmitAsync reported as queued before it closes the socket. The
// script server reads without acking, so no unread ack can turn the
// close into a reset, and counts the Submit frames it got.
func TestCloseFlushesQueuedSubmits(t *testing.T) {
	const n = 200
	got := make(chan int, 1)
	addr := script(t, func(nc net.Conn, buf []byte) {
		count := 0
		for {
			f, b, err := wire.ReadFrame(nc, buf)
			if err != nil {
				break
			}
			buf = b
			if f.Kind == wire.KindSubmit {
				count++
			}
		}
		got <- count
	})
	c, err := client.Dial(addr, "acme")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.SubmitAsync(jobs.InsertReq("job", jobs.Time(i*16), jobs.Time(i*16+8)), 0); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	c.Close()
	select {
	case count := <-got:
		if count != n {
			t.Fatalf("server received %d submits before the close, want all %d", count, n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not see the connection end within 5s of Close")
	}
}
