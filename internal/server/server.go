// Package server is reallocd's network front-end: a TCP server
// speaking the wire protocol over per-tenant scheduler namespaces.
//
// # Tenant model
//
// Every connection belongs to one tenant, named in its Hello frame.
// The first connection naming a tenant creates that tenant's
// shard.Scheduler lazily via Config.NewScheduler (which is where the
// binary wires in per-tenant WAL directories); later connections —
// concurrent ones included — share it. Tenants are isolated: separate
// schedulers, separate machine pools, separate admission budgets.
//
// # Admission control and coalescing
//
// Each tenant has a bounded inflight budget (Config.MaxInflight). A
// submit that would exceed it is rejected immediately with a
// CodeOverload ack — the server never queues unboundedly; the client
// backs off and retries. Admitted requests flow through the tenant's
// coalescer goroutine, which drains whatever has accumulated — across
// all of the tenant's connections — and serves it as ONE
// shard.Scheduler.ApplyBatch per tick, exactly the way the WAL
// group-commits concurrent appends: one routing lock, one coalesced
// trim rebuild, per-shard sub-batches, regardless of how many
// connections produced the requests.
//
// # Deadlines
//
// Submit/Batch frames carry an optional relative deadline. An admitted
// request that is still waiting when its deadline passes is rejected
// with CodeDeadline, having mutated nothing: the coalescer checks
// expiry when it builds a batch, and a request that travels alone also
// propagates its deadline into the scheduler (ApplyDeadline), where
// the shard queue enforces it while parked or queued.
//
// # Shutdown
//
// Close stops the listener, kicks every connection's reader, lets
// in-flight requests finish and their acks flush, then closes every
// tenant scheduler (which flushes tenant WALs). In-flight work is
// drained, not dropped.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jobs"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/wire"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Config configures a Server. NewScheduler is required; the zero value
// of everything else is usable.
type Config struct {
	// NewScheduler builds the scheduler for a tenant on its first
	// connection. This is the binary's composition point: durability,
	// shard count, and machine pool all live in the closure.
	NewScheduler func(tenant string) (*shard.Scheduler, error)
	// MaxInflight is the per-tenant admission budget: requests admitted
	// but not yet acked. Beyond it, submits are rejected with
	// CodeOverload. Default 1024.
	MaxInflight int
	// BatchLimit caps how many queued requests one coalescer tick
	// serves as a single ApplyBatch. Default 128.
	BatchLimit int
	// MaxTenants bounds lazy tenant creation (0 = unbounded).
	MaxTenants int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.NewScheduler == nil {
		panic("server: Config.NewScheduler is nil")
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.BatchLimit <= 0 {
		c.BatchLimit = 128
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server serves the wire protocol over a listener.
type Server struct {
	cfg Config

	mu      sync.Mutex
	ln      net.Listener
	tenants map[string]*tenant
	conns   map[*conn]struct{}
	closed  bool

	wg sync.WaitGroup // live connection handlers
}

// New builds a Server. Call Serve (or use Listen) to start it.
func New(cfg Config) *Server {
	cfg.fill()
	return &Server{
		cfg:     cfg,
		tenants: make(map[string]*tenant),
		conns:   make(map[*conn]struct{}),
	}
}

// Listen starts a server on addr ("host:port") and serves it on a
// background goroutine. The caller owns the returned server and must
// Close it.
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := New(cfg)
	s.mu.Lock()
	s.ln = ln // visible to Addr before Serve's goroutine runs
	s.mu.Unlock()
	go func() {
		if err := s.Serve(ln); err != nil && !errors.Is(err, ErrServerClosed) {
			s.cfg.Logf("server: serve: %v", err)
		}
	}()
	return s, nil
}

// Addr returns the listener address (nil before Serve/Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Close, then returns
// ErrServerClosed. One Serve per Server.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			return err
		}
		s.wg.Add(1)
		go s.handle(nc)
	}
}

// Close stops accepting, drains every connection (in-flight requests
// finish and their acks flush), and closes every tenant scheduler.
// Idempotent; concurrent calls all wait for the drain.
func (s *Server) Close() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	ln := s.ln
	kick := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		kick = append(kick, c)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, c := range kick {
		c.kick()
	}
	s.wg.Wait()

	if already {
		// A concurrent Close owns the tenant teardown; the wg wait
		// above still made this call block until the drain.
		return nil
	}
	s.mu.Lock()
	tenants := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.Unlock()
	for _, t := range tenants {
		t.close()
	}
	return nil
}

// A Promoter hands the primary role to a warm follower after the
// local write path is sealed (internal/repl's Source implements it).
// It reports the new fencing epoch the follower promoted to.
type Promoter interface {
	Handoff(reason string) (uint64, error)
}

// Handoff performs a graceful primary-to-follower transition: seal
// first, promote second. Close drains every connection — each
// in-flight request's WAL group commit ships to the followers before
// its ack flushes, and the tenant teardown flushes and closes the WALs
// — and only then is the follower told to promote. The ordering
// enforces the fencing rule's third clause: this primary never
// acknowledges a write after Promote is sent. Returns the follower's
// new epoch.
func (s *Server) Handoff(p Promoter, reason string) (uint64, error) {
	if err := s.Close(); err != nil {
		return 0, err
	}
	return p.Handoff(reason)
}

// tenant returns (creating lazily) the named tenant.
func (s *Server) tenant(name string) (*tenant, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	if t, ok := s.tenants[name]; ok {
		return t, nil
	}
	if s.cfg.MaxTenants > 0 && len(s.tenants) >= s.cfg.MaxTenants {
		return nil, fmt.Errorf("server: tenant limit %d reached", s.cfg.MaxTenants)
	}
	sc, err := s.cfg.NewScheduler(name)
	if err != nil {
		return nil, fmt.Errorf("server: creating tenant %q: %w", name, err)
	}
	t := &tenant{
		name:  name,
		sched: sc,
		q:     make(chan item, s.cfg.MaxInflight),
		done:  make(chan struct{}),
	}
	go t.run(s.cfg.BatchLimit)
	s.tenants[name] = t
	return t, nil
}

// ---------------------------------------------------------------------
// tenant: one scheduler namespace + its coalescer
// ---------------------------------------------------------------------

// item is one queued unit of tenant work: a request with its ack
// callback, or a ctrl barrier (drain) that runs after everything
// queued before it has been served.
type item struct {
	req jobs.Request
	// exp is the request's absolute expiry (zero = none).
	exp  time.Time
	done func(code wire.Code, detail string)
	ctrl func()
}

type tenant struct {
	name  string
	sched *shard.Scheduler

	// inflight is the admission budget: admitted-not-yet-acked
	// requests. It is bounded by Config.MaxInflight, which also sizes
	// q — so an admitted enqueue never blocks the reader for long.
	inflight atomic.Int64

	// qmu guards qClosed and the channel send (the wal.Log sendMu
	// idiom: enqueuers hold the read side, close holds the write side).
	qmu     sync.RWMutex
	qClosed bool
	q       chan item
	done    chan struct{}

	// Coalescer-owned scratch, reused across ticks.
	reqs []jobs.Request
	idx  []int
}

// enqueue hands an item to the coalescer, reporting false if the
// tenant is shut down.
func (t *tenant) enqueue(it item) bool {
	t.qmu.RLock()
	defer t.qmu.RUnlock()
	if t.qClosed {
		return false
	}
	t.q <- it
	return true
}

// close stops the coalescer (serving everything already queued) and
// closes the scheduler, flushing its WAL.
func (t *tenant) close() {
	t.qmu.Lock()
	if !t.qClosed {
		t.qClosed = true
		close(t.q)
	}
	t.qmu.Unlock()
	<-t.done
	t.sched.Close()
}

// run is the coalescer loop: drain whatever has accumulated across
// the tenant's connections, serve it as one ApplyBatch. Mirrors the
// WAL flusher's group-commit drain.
func (t *tenant) run(batchLimit int) {
	defer close(t.done)
	batch := make([]item, 0, batchLimit)
	for it := range t.q {
		if it.ctrl != nil {
			it.ctrl()
			continue
		}
		batch = append(batch[:0], it)
	fill:
		for len(batch) < batchLimit {
			select {
			case it2, ok := <-t.q:
				if !ok {
					break fill
				}
				if it2.ctrl != nil {
					// Barrier: everything queued before it must be
					// served first.
					t.serve(batch)
					batch = batch[:0]
					it2.ctrl()
					continue
				}
				batch = append(batch, it2)
			default:
				break fill
			}
		}
		t.serve(batch)
	}
}

// serve executes one coalesced tick.
func (t *tenant) serve(batch []item) {
	if len(batch) == 0 {
		return
	}
	// Expiry check at batch build: a request that waited past its
	// deadline in the coalescer queue is rejected un-executed.
	now := time.Now()
	reqs, idx := t.reqs[:0], t.idx[:0]
	for i := range batch {
		it := &batch[i]
		if !it.exp.IsZero() && now.After(it.exp) {
			it.done(wire.CodeDeadline, "")
			continue
		}
		reqs = append(reqs, it.req)
		idx = append(idx, i)
	}
	switch len(reqs) {
	case 0:
	case 1:
		// A lone request keeps full deadline coverage: ApplyDeadline
		// enforces expiry inside the scheduler too (parked on a full
		// shard queue, or waiting in it).
		it := &batch[idx[0]]
		var err error
		if it.exp.IsZero() {
			_, err = t.sched.Apply(it.req)
		} else if remain := time.Until(it.exp); remain <= 0 {
			// Expired since the batch-build check: a non-positive
			// timeout would read as "no deadline" downstream.
			err = shard.ErrDeadlineExceeded
		} else {
			_, err = t.sched.ApplyDeadline(it.req, remain)
		}
		it.done(codeOf(err))
	default:
		_, err := t.sched.ApplyBatch(reqs)
		var be *sched.BatchError
		if err != nil && !errors.As(err, &be) {
			be = nil
		}
		for k := range reqs {
			e := err
			if be != nil {
				e = be.At(k)
			}
			batch[idx[k]].done(codeOf(e))
		}
	}
	t.reqs, t.idx = reqs, idx // keep grown scratch
}

// codeOf maps a scheduler error to its wire code.
func codeOf(err error) (wire.Code, string) {
	switch {
	case err == nil:
		return wire.CodeOK, ""
	case errors.Is(err, shard.ErrDeadlineExceeded):
		return wire.CodeDeadline, ""
	case errors.Is(err, sched.ErrInfeasible):
		return wire.CodeInfeasible, err.Error()
	case errors.Is(err, sched.ErrDuplicateJob):
		return wire.CodeDuplicate, err.Error()
	case errors.Is(err, sched.ErrUnknownJob):
		return wire.CodeUnknownJob, err.Error()
	case errors.Is(err, shard.ErrClosed):
		return wire.CodeClosed, ""
	default:
		return wire.CodeInternal, err.Error()
	}
}

// ---------------------------------------------------------------------
// connection handling
// ---------------------------------------------------------------------

const handshakeTimeout = 30 * time.Second

type conn struct {
	nc net.Conn
	t  *tenant

	// out feeds the writer goroutine. Sends go through send() (closed
	// check under outMu); capacity covers the tenant budget so acks
	// rarely block the coalescer.
	outMu     sync.RWMutex
	outClosed bool
	out       chan wire.Frame
	wdone     chan struct{}

	// pending counts outstanding acks (submits, drains, snapshots):
	// teardown waits for them before closing out, so an accepted
	// request's ack is never dropped by a racing shutdown.
	pending sync.WaitGroup

	// kicked marks a shutdown kick; the handshake-deadline reset
	// re-checks it so a kick can never be erased.
	kicked atomic.Bool
}

// kick interrupts the connection's blocked read (server shutdown).
func (c *conn) kick() {
	c.kicked.Store(true)
	c.nc.SetReadDeadline(time.Now())
}

// send queues a frame for the writer, dropping it if the writer is
// gone (connection torn down — its client cannot receive anything).
func (c *conn) send(f wire.Frame) {
	c.outMu.RLock()
	defer c.outMu.RUnlock()
	if c.outClosed {
		return
	}
	c.out <- f
}

func (c *conn) closeOut() {
	c.outMu.Lock()
	if !c.outClosed {
		c.outClosed = true
		close(c.out)
	}
	c.outMu.Unlock()
}

// writeLoop is the connection's writer: one goroutine owns the socket
// write side, batching frames through bufio and flushing when the
// queue goes idle (the group-commit shape again). After a write error
// it keeps draining so producers never block on a dead connection.
func (c *conn) writeLoop() {
	defer close(c.wdone)
	bw := bufio.NewWriter(c.nc)
	var buf []byte
	var werr error
	for f := range c.out {
		if werr != nil {
			continue // drain
		}
		buf, werr = wire.WriteFrame(bw, buf, &f)
		if werr == nil && len(c.out) == 0 {
			werr = bw.Flush()
		}
	}
	if werr == nil {
		bw.Flush()
	}
}

// fatal writes a connection-fatal Err frame directly (the writer may
// not exist yet) and is followed by connection close.
func fatal(nc net.Conn, code wire.Code, detail string) {
	f := wire.Frame{Kind: wire.KindErr, Code: code, Detail: detail}
	b, err := wire.AppendFrame(nil, &f)
	if err == nil {
		nc.SetWriteDeadline(time.Now().Add(2 * time.Second))
		nc.Write(b)
	}
}

// handle runs one connection: handshake, then the read loop.
func (s *Server) handle(nc net.Conn) {
	defer s.wg.Done()
	defer nc.Close()

	// Handshake under a read deadline so a silent client cannot pin
	// the handler forever.
	nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	hello, buf, err := wire.ReadFrame(nc, nil)
	if err != nil {
		return
	}
	if hello.Kind != wire.KindHello {
		fatal(nc, wire.CodeBadRequest, fmt.Sprintf("expected hello, got %s", hello.Kind))
		return
	}
	if hello.Version != wire.Version {
		fatal(nc, wire.CodeBadRequest, fmt.Sprintf("unsupported protocol version %d (want %d)", hello.Version, wire.Version))
		return
	}
	t, err := s.tenant(hello.Tenant)
	if err != nil {
		code := wire.CodeInternal
		if errors.Is(err, ErrServerClosed) {
			code = wire.CodeClosed
		}
		fatal(nc, code, err.Error())
		return
	}

	c := &conn{
		nc:    nc,
		t:     t,
		out:   make(chan wire.Frame, s.cfg.MaxInflight+64),
		wdone: make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		fatal(nc, wire.CodeClosed, ErrServerClosed.Error())
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	go c.writeLoop()
	c.send(wire.Frame{Kind: wire.KindWelcome, Shards: t.sched.Shards(), Machines: t.sched.Machines()})

	// Lift the handshake deadline — unless a shutdown kick raced the
	// reset, in which case re-arm it so the kick sticks.
	nc.SetReadDeadline(time.Time{})
	if c.kicked.Load() {
		nc.SetReadDeadline(time.Now())
	}

	s.readLoop(c, buf)

	// Drain: every accepted request acks, acks flush, then the socket
	// closes (via the deferred nc.Close).
	c.pending.Wait()
	c.closeOut()
	<-c.wdone
}

// readLoop dispatches frames until the connection ends (client close,
// protocol error, or shutdown kick). It reads through one buffered
// reader, so a burst of pipelined frames costs one read, not two per
// frame. Whole frames can then sit in the buffer past a kick's read
// deadline, so the kick is checked before each dispatch.
func (s *Server) readLoop(c *conn, buf []byte) {
	br := bufio.NewReader(c.nc)
	for {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			if isWireError(err) {
				s.cfg.Logf("server: %s tenant %q: protocol error: %v", c.nc.RemoteAddr(), c.t.name, err)
				c.send(wire.Frame{Kind: wire.KindErr, Code: wire.CodeBadRequest, Detail: err.Error()})
			}
			return
		}
		if c.kicked.Load() {
			return
		}
		switch f.Kind {
		case wire.KindSubmit:
			s.submit(c, &f)
		case wire.KindBatch:
			s.submitBatch(c, &f)
		case wire.KindDrain:
			s.drain(c, f.ID)
		case wire.KindSnapshotReq:
			s.snapshot(c, f.ID)
		case wire.KindResize:
			s.resize(c, f.ID, f.Machines)
		default:
			c.send(wire.Frame{Kind: wire.KindErr, Code: wire.CodeBadRequest,
				Detail: fmt.Sprintf("unexpected %s frame", f.Kind)})
			return
		}
	}
}

// isWireError distinguishes protocol violations (worth an Err frame)
// from transport ends (EOF, reset, kick) where nobody is listening.
func isWireError(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) {
		return false // read deadline (shutdown kick) or transport timeout
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return false // clean or torn client close
	}
	var oe *net.OpError
	return !errors.As(err, &oe)
}

func expiry(deadlineUS uint64) time.Time {
	if deadlineUS == 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(deadlineUS) * time.Microsecond)
}

// submit admits one request: budget check, then the coalescer queue.
func (s *Server) submit(c *conn, f *wire.Frame) {
	id := f.ID
	if err := f.Req.Validate(); err != nil {
		c.send(wire.Frame{Kind: wire.KindAck, ID: id, Code: wire.CodeBadRequest, Detail: err.Error()})
		return
	}
	t := c.t
	if t.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		t.inflight.Add(-1)
		c.send(wire.Frame{Kind: wire.KindAck, ID: id, Code: wire.CodeOverload,
			Detail: wire.ErrOverload.Error()})
		return
	}
	c.pending.Add(1)
	ok := t.enqueue(item{req: f.Req, exp: expiry(f.DeadlineUS), done: func(code wire.Code, detail string) {
		c.send(wire.Frame{Kind: wire.KindAck, ID: id, Code: code, Detail: detail})
		t.inflight.Add(-1)
		c.pending.Done()
	}})
	if !ok {
		c.send(wire.Frame{Kind: wire.KindAck, ID: id, Code: wire.CodeClosed})
		t.inflight.Add(-1)
		c.pending.Done()
	}
}

// submitBatch admits a Batch frame: all-or-nothing on the budget, one
// BatchAck with per-request codes once every member settles.
func (s *Server) submitBatch(c *conn, f *wire.Frame) {
	id := f.ID
	t := c.t
	n := len(f.Batch)
	codes := make([]wire.Code, n)

	if t.inflight.Add(int64(n)) > int64(s.cfg.MaxInflight) {
		t.inflight.Add(int64(-n))
		for i := range codes {
			codes[i] = wire.CodeOverload
		}
		c.send(wire.Frame{Kind: wire.KindBatchAck, ID: id, Codes: codes})
		return
	}
	c.pending.Add(1)
	var remaining atomic.Int64
	exp := expiry(f.DeadlineUS)
	settle := func() {
		if remaining.Add(-1) == 0 {
			c.send(wire.Frame{Kind: wire.KindBatchAck, ID: id, Codes: codes})
			c.pending.Done()
		}
	}
	// Count every member before enqueueing any, so an early settle
	// cannot fire the ack while later members are still unqueued.
	remaining.Store(int64(n))
	for i, r := range f.Batch {
		i := i
		if err := r.Validate(); err != nil {
			codes[i] = wire.CodeBadRequest
			t.inflight.Add(-1)
			settle()
			continue
		}
		ok := t.enqueue(item{req: r, exp: exp, done: func(code wire.Code, _ string) {
			codes[i] = code
			t.inflight.Add(-1)
			settle()
		}})
		if !ok {
			codes[i] = wire.CodeClosed
			t.inflight.Add(-1)
			settle()
		}
	}
}

// drain enqueues a barrier: its ack means everything this tenant had
// queued before the drain has been served and acked. The coalescer
// serves every request synchronously, so reaching the barrier is the
// whole proof and the ack is always CodeOK.
func (s *Server) drain(c *conn, id uint64) {
	t := c.t
	c.pending.Add(1)
	ok := t.enqueue(item{ctrl: func() {
		c.send(wire.Frame{Kind: wire.KindDrainAck, ID: id, Code: wire.CodeOK})
		c.pending.Done()
	}})
	if !ok {
		c.send(wire.Frame{Kind: wire.KindDrainAck, ID: id, Code: wire.CodeClosed})
		c.pending.Done()
	}
}

// snapshot answers with a consistent schedule snapshot. It runs off
// the reader so a big snapshot never stalls request intake.
func (s *Server) snapshot(c *conn, id uint64) {
	t := c.t
	c.pending.Add(1)
	go func() {
		defer c.pending.Done()
		snap := t.sched.Snapshot()
		placed := make([]wire.PlacedJob, 0, len(snap.Jobs))
		for _, j := range snap.Jobs {
			placed = append(placed, wire.PlacedJob{Job: j, Placement: snap.Assignment[j.Name]})
		}
		c.send(wire.Frame{Kind: wire.KindSnapshot, ID: id, Machines: snap.Machines, Jobs: placed})
	}()
}

// resize re-partitions the tenant's machine pool.
func (s *Server) resize(c *conn, id uint64, machines int) {
	t := c.t
	c.pending.Add(1)
	go func() {
		defer c.pending.Done()
		_, err := t.sched.Resize(machines)
		code, detail := codeOf(err)
		c.send(wire.Frame{Kind: wire.KindAck, ID: id, Code: code, Detail: detail})
	}()
}
