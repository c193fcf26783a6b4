// Package client is the Go client for reallocd, the repro network
// front-end. One Client is one connection, bound to one tenant at
// Dial time; it is safe for concurrent use and pipelines requests —
// many submits can be in flight before the first ack returns.
//
// Synchronous helpers (Submit, SubmitDeadline, Batch, Drain, Snapshot,
// Resize) block for their ack. SubmitAsync returns a Pending handle so
// open-loop callers can keep the pipe full: it returns once its frame
// is queued. Every call queues its frame, and a per-connection flusher
// writes everything queued since its last flush in one write when the
// queue goes idle. A transport failure after SubmitAsync returned
// surfaces through Wait and later calls, not from SubmitAsync itself.
// Acks are read through one buffered reader, so a burst of them costs
// one read. Admission pushback arrives as ErrOverload, deadline expiry
// as ErrDeadline — both are per-request verdicts, the connection stays
// healthy. Err frames and transport failures are connection-fatal:
// every outstanding and future call fails with the same error.
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// Sentinel errors for per-request server verdicts. All are wrapped
// with server detail where available; match with errors.Is.
//
// Every sentinel aliases internal/fault — the repo's unified error
// vocabulary, re-exported by the public realloc package — so a remote
// caller branches on exactly the errors.Is targets an embedded caller
// does: errors.Is(err, realloc.ErrOverload) holds whether the overload
// was raised by realloc.Sharded directly or decoded from a CodeOverload
// ack here. ErrOverload is an alias of that one sentinel, not a
// parallel species.
var (
	// ErrOverload: the tenant's inflight budget was exhausted; back
	// off and retry.
	ErrOverload = fault.ErrOverload
	// ErrDeadline: the request's deadline passed before it executed;
	// it mutated nothing.
	ErrDeadline = fault.ErrDeadlineExceeded
	// ErrInfeasible: the request was rejected by the scheduler as
	// infeasible.
	ErrInfeasible = fault.ErrInfeasible
	// ErrDuplicate: insert of a name that is already scheduled.
	ErrDuplicate = fault.ErrDuplicateJob
	// ErrUnknownJob: delete of a name that is not scheduled.
	ErrUnknownJob = fault.ErrUnknownJob
	// ErrClosed: the server (or this client) is shut down.
	ErrClosed = fault.ErrClosed
	// ErrBadRequest: the server rejected the request as malformed.
	ErrBadRequest = fault.ErrBadRequest
	// ErrFenced: the server has been deposed by a newer primary epoch
	// and refuses writes; redial the promoted follower.
	ErrFenced = fault.ErrFenced
)

func codeErr(code wire.Code, detail string) error {
	var base error
	switch code {
	case wire.CodeOK:
		return nil
	case wire.CodeOverload:
		return ErrOverload
	case wire.CodeDeadline:
		return ErrDeadline
	case wire.CodeInfeasible:
		base = ErrInfeasible
	case wire.CodeDuplicate:
		base = ErrDuplicate
	case wire.CodeUnknownJob:
		base = ErrUnknownJob
	case wire.CodeClosed:
		return ErrClosed
	case wire.CodeBadRequest:
		base = ErrBadRequest
	case wire.CodeFenced:
		base = ErrFenced
	default:
		base = fmt.Errorf("client: server error (code %d)", code)
	}
	if detail == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// Snapshot is a consistent view of the tenant's schedule.
type Snapshot struct {
	Machines int
	Jobs     []wire.PlacedJob
}

// DialOption customizes Dial, mirroring realloc.New's functional
// options. The zero-option call Dial(addr, tenant) behaves exactly as
// it always has.
type DialOption func(*dialConfig)

type dialConfig struct {
	timeout  time.Duration
	attempts int
	backoff  time.Duration
	fallback []string
}

// WithDialTimeout bounds each connection attempt — TCP connect plus
// the Hello/Welcome handshake (default 30s).
func WithDialTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.timeout = d }
}

// WithRedial retries a failed dial: up to attempts rounds over the
// address list (the primary address plus any WithFallback addresses),
// sleeping backoff between rounds. The default is one round, no
// retry. This is the failover-aware mode: after a primary dies, a
// redialing client finds the promoted follower on its fallback list.
func WithRedial(attempts int, backoff time.Duration) DialOption {
	return func(c *dialConfig) {
		if attempts > 0 {
			c.attempts = attempts
		}
		c.backoff = backoff
	}
}

// WithFallback appends failover addresses tried, in order, after the
// primary address within every dial round.
func WithFallback(addrs ...string) DialOption {
	return func(c *dialConfig) { c.fallback = append(c.fallback, addrs...) }
}

// Client is one tenant-bound connection to a reallocd server.
type Client struct {
	nc               net.Conn
	tenant           string
	shards, machines int

	// wmu serializes the write side (frame encode + bufio flush) and
	// ID allocation. The frames calls queue in bw are flushed by
	// flushLoop, which a send on kick wakes.
	wmu    sync.Mutex
	bw     *bufio.Writer
	wbuf   []byte
	nextID uint64
	kick   chan struct{}

	// mu guards the demux table and the sticky fatal error.
	mu      sync.Mutex
	pending map[uint64]chan wire.Frame
	err     error
	closed  bool
	rdone   chan struct{}

	loops sync.WaitGroup // readLoop and flushLoop
}

// Dial connects to a reallocd server and performs the Hello/Welcome
// handshake for the given tenant. With no options it makes one attempt
// against addr; see WithRedial/WithFallback for the failover-aware
// variants.
func Dial(addr, tenant string, opts ...DialOption) (*Client, error) {
	cfg := dialConfig{timeout: 30 * time.Second, attempts: 1}
	for _, o := range opts {
		o(&cfg)
	}
	addrs := append([]string{addr}, cfg.fallback...)
	var err error
	for round := 0; round < cfg.attempts; round++ {
		if round > 0 && cfg.backoff > 0 {
			time.Sleep(cfg.backoff)
		}
		for _, a := range addrs {
			var c *Client
			if c, err = dialOne(a, tenant, &cfg); err == nil {
				return c, nil
			}
		}
	}
	return nil, err
}

// dialOne makes one connection attempt with the config's timeout
// covering connect plus handshake.
func dialOne(addr, tenant string, cfg *dialConfig) (*Client, error) {
	nc, err := net.DialTimeout("tcp", addr, cfg.timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		nc:      nc,
		tenant:  tenant,
		bw:      bufio.NewWriter(nc),
		kick:    make(chan struct{}, 1),
		pending: make(map[uint64]chan wire.Frame),
		rdone:   make(chan struct{}),
	}
	hello := wire.Frame{Kind: wire.KindHello, Version: wire.Version, Tenant: tenant}
	c.wmu.Lock()
	c.wbuf, err = wire.WriteFrame(c.bw, c.wbuf, &hello)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	nc.SetReadDeadline(time.Now().Add(cfg.timeout))
	welcome, _, err := wire.ReadFrame(nc, nil)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	nc.SetReadDeadline(time.Time{})
	switch welcome.Kind {
	case wire.KindWelcome:
	case wire.KindErr:
		nc.Close()
		return nil, codeErr(welcome.Code, welcome.Detail)
	default:
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected %s frame", welcome.Kind)
	}
	c.shards, c.machines = welcome.Shards, welcome.Machines
	c.loops.Add(2)
	go c.readLoop()
	go c.flushLoop()
	return c, nil
}

// Tenant returns the tenant this connection is bound to.
func (c *Client) Tenant() string { return c.tenant }

// Shards reports the tenant scheduler's shard count (from Welcome).
func (c *Client) Shards() int { return c.shards }

// Machines reports the machine pool size at handshake time.
func (c *Client) Machines() int { return c.machines }

// readLoop demultiplexes acks to their waiting calls by request ID.
func (c *Client) readLoop() {
	defer c.loops.Done()
	defer close(c.rdone)
	br := bufio.NewReader(c.nc)
	var buf []byte
	for {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
			return
		}
		if f.Kind == wire.KindErr {
			// Connection-fatal server verdict.
			c.fail(codeErr(f.Code, f.Detail))
			c.nc.Close()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- f // buffered: never blocks
		}
	}
}

// flushLoop writes out the frames calls queued: each kick flushes
// everything written since the last flush, so a burst of pipelined
// submits costs one write. It exits when the read loop ends; by then
// the client is poisoned, so any frame left unflushed belongs to a
// request whose Wait fails with the sticky error.
func (c *Client) flushLoop() {
	defer c.loops.Done()
	for {
		select {
		case <-c.kick:
		case <-c.rdone:
			return
		}
		c.wmu.Lock()
		err := c.bw.Flush()
		c.wmu.Unlock()
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClosed, err))
		}
	}
}

// fail poisons the client: every outstanding and future call returns
// err (the first fatal error sticks).
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// register allocates an ID and its ack channel. The caller must hold
// wmu (register and write must be atomic so acks can't outrun the
// table entry — they can't anyway, but IDs must be written in
// allocation order for debuggability).
func (c *Client) register() (uint64, chan wire.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, nil, c.err
	}
	if c.closed {
		return 0, nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan wire.Frame, 1)
	c.pending[id] = ch
	return id, ch, nil
}

// call queues f (assigning its ID) and returns the ack channel. When
// the buffer was clean it kicks the flusher: a buffer holding frames
// always has a kick outstanding, so no frame waits for a later call.
func (c *Client) call(f *wire.Frame) (chan wire.Frame, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	f.ID = id
	clean := c.bw.Buffered() == 0
	c.wbuf, err = wire.WriteFrame(c.bw, c.wbuf, f)
	if err == nil && clean {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		err = fmt.Errorf("%w: %v", ErrClosed, err)
		c.fail(err)
		return nil, err
	}
	return ch, nil
}

// Pending is an in-flight request handle from SubmitAsync.
type Pending struct {
	c  *Client
	ch chan wire.Frame
}

// Wait blocks for the ack and returns the request's verdict.
func (p *Pending) Wait() error {
	f, ok := <-p.ch
	if !ok {
		p.c.mu.Lock()
		err := p.c.err
		p.c.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return err
	}
	return codeErr(f.Code, f.Detail)
}

// SubmitAsync sends one request without waiting for its ack. A zero
// timeout means no deadline. It returns once the frame is queued for
// the connection's flusher; a transport failure after that surfaces
// through Wait and later calls. Acks may settle in any order; each
// Pending resolves independently.
func (c *Client) SubmitAsync(r jobs.Request, timeout time.Duration) (*Pending, error) {
	f := wire.Frame{Kind: wire.KindSubmit, Req: r, DeadlineUS: deadlineUS(timeout)}
	ch, err := c.call(&f)
	if err != nil {
		return nil, err
	}
	return &Pending{c: c, ch: ch}, nil
}

// Submit sends one request and waits for its verdict.
func (c *Client) Submit(r jobs.Request) error { return c.SubmitDeadline(r, 0) }

// SubmitDeadline sends one request with a deadline and waits for its
// verdict. ErrDeadline means the request expired un-executed.
func (c *Client) SubmitDeadline(r jobs.Request, timeout time.Duration) error {
	p, err := c.SubmitAsync(r, timeout)
	if err != nil {
		return err
	}
	return p.Wait()
}

// Batch sends a request batch and returns per-request verdicts
// (nil for success), index-aligned with reqs. A zero timeout means no
// deadline. The returned error covers transport failure only.
func (c *Client) Batch(reqs []jobs.Request, timeout time.Duration) ([]error, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	f := wire.Frame{Kind: wire.KindBatch, Batch: reqs, DeadlineUS: deadlineUS(timeout)}
	ch, err := c.call(&f)
	if err != nil {
		return nil, err
	}
	ack, ok := <-ch
	if !ok {
		return nil, c.stickyErr()
	}
	if len(ack.Codes) != len(reqs) {
		return nil, fmt.Errorf("client: batch ack holds %d codes for %d requests", len(ack.Codes), len(reqs))
	}
	errs := make([]error, len(reqs))
	for i, code := range ack.Codes {
		errs[i] = codeErr(code, "")
	}
	return errs, nil
}

// Drain blocks until everything sent on this connection before the
// call has been served and acked, and every batch the tenant had begun
// serving for its other connections has finished. It fails only when
// the connection or the tenant is closed.
func (c *Client) Drain() error {
	ch, err := c.call(&wire.Frame{Kind: wire.KindDrain})
	if err != nil {
		return err
	}
	f, ok := <-ch
	if !ok {
		return c.stickyErr()
	}
	return codeErr(f.Code, f.Detail)
}

// Snapshot fetches a consistent view of the tenant's schedule.
func (c *Client) Snapshot() (Snapshot, error) {
	ch, err := c.call(&wire.Frame{Kind: wire.KindSnapshotReq})
	if err != nil {
		return Snapshot{}, err
	}
	f, ok := <-ch
	if !ok {
		return Snapshot{}, c.stickyErr()
	}
	return Snapshot{Machines: f.Machines, Jobs: f.Jobs}, nil
}

// Resize re-partitions the tenant's machine pool to the given size.
func (c *Client) Resize(machines int) error {
	ch, err := c.call(&wire.Frame{Kind: wire.KindResize, Machines: machines})
	if err != nil {
		return err
	}
	f, ok := <-ch
	if !ok {
		return c.stickyErr()
	}
	return codeErr(f.Code, f.Detail)
}

// Close flushes any queued frames and tears down the connection.
// Outstanding calls fail with ErrClosed. Idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.loops.Wait()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	// Bound the final flush: a server that stopped reading must not
	// hold Close (or a flusher stuck in its write) forever.
	c.nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
	c.wmu.Lock()
	_ = c.bw.Flush() // a failure reaches the queued submits' Wait as ErrClosed
	c.wmu.Unlock()
	err := c.nc.Close()
	c.loops.Wait()
	return err
}

func (c *Client) stickyErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClosed
}

func deadlineUS(timeout time.Duration) uint64 {
	if timeout <= 0 {
		return 0
	}
	us := timeout / time.Microsecond
	if us == 0 {
		us = 1
	}
	return uint64(us)
}
