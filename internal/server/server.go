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
// # Admission and batching
//
// Each connection has one goroutine, its reader, and it does all of
// the connection's request work. It admits the requests of every whole
// frame already in its read buffer, up to Config.BatchLimit, serves
// them as one shard.Scheduler.ApplyBatch (a lone request goes through
// Apply), and writes all of their acks in one write. It serves and
// writes before any read that could block, so a request never waits
// for bytes that have not arrived. It answers a Snapshot or Resize
// request itself, in frame order, once the requests admitted ahead of
// it are served, so it is the only writer of its socket.
//
// Each tenant has a bounded inflight budget (Config.MaxInflight)
// shared by its connections. A submit that would exceed it is rejected
// immediately with a CodeOverload ack: the server never queues
// unboundedly; the client backs off and retries. A tenant's batches
// are served under one lock, so when a tenant has several connections
// its log order is its execution order.
//
// # Deadlines
//
// Submit/Batch frames carry an optional relative deadline. An admitted
// request whose deadline has passed when its batch is served is
// rejected with CodeDeadline, having mutated nothing and never logged.
// This one check covers every request, lone or batched: it runs under
// the tenant lock, after the request waited for the tenant's earlier
// batches, and the scheduler itself takes no deadline.
//
// # Shutdown
//
// Close stops the listener, kicks every connection's reader, lets
// in-flight requests finish and their acks flush, then closes every
// tenant scheduler (which flushes tenant WALs). In-flight work is
// drained, not dropped. Every socket write has a deadline, so a client
// that stops reading its acks cannot hold Close up: the write fails,
// and the connection ends once its admitted requests are served.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
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
	// BatchLimit caps how many requests a connection's reader admits
	// from its buffered frames before it serves them as one ApplyBatch.
	// Default 128.
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
		t.sched.Close()
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
	t := &tenant{name: name, sched: sc}
	s.tenants[name] = t
	return t, nil
}

// ---------------------------------------------------------------------
// tenant: one scheduler namespace
// ---------------------------------------------------------------------

type tenant struct {
	name  string
	sched *shard.Scheduler

	// inflight is the admission budget: admitted-not-yet-acked
	// requests across the tenant's connections, bounded by
	// Config.MaxInflight.
	inflight atomic.Int64

	// mu is held around serve, so the tenant's batches run one at a
	// time and its log order is its execution order. It also guards
	// the scratch below.
	mu   sync.Mutex
	reqs []jobs.Request
	idx  []int
}

// item is one admitted request: a Submit, or one member of a Batch
// frame. serve sets its verdict.
type item struct {
	req jobs.Request
	// exp is the request's absolute expiry (zero = none).
	exp    time.Time
	code   wire.Code
	detail string

	// Where the verdict goes: a Submit's Ack carries id (codes is nil);
	// a Batch member's code lands in codes[member], and the frame's last
	// admitted member sends the BatchAck.
	id     uint64
	codes  []wire.Code
	member int
	last   bool
}

// serve executes one batch under the tenant lock. An empty batch only
// takes the lock: it returns once every batch the tenant had begun
// serving has finished.
func (t *tenant) serve(batch []item) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Expiry check at serve time: a request that waited past its
	// deadline is rejected un-executed.
	now := time.Now()
	reqs, idx := t.reqs[:0], t.idx[:0]
	for i := range batch {
		it := &batch[i]
		if !it.exp.IsZero() && now.After(it.exp) {
			it.code = wire.CodeDeadline
			continue
		}
		reqs = append(reqs, it.req)
		idx = append(idx, i)
	}
	switch len(reqs) {
	case 0:
	case 1:
		it := &batch[idx[0]]
		_, err := t.sched.Apply(it.req)
		it.code, it.detail = codeOf(err)
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
			it := &batch[idx[k]]
			it.code, it.detail = codeOf(e)
		}
	}
	t.reqs, t.idx = reqs, idx // keep grown scratch
}

// codeOf maps a scheduler error to its wire code.
func codeOf(err error) (wire.Code, string) {
	switch {
	case err == nil:
		return wire.CodeOK, ""
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

const (
	handshakeTimeout = 30 * time.Second
	// writeTimeout bounds every socket write: a client that stops
	// reading its acks loses its connection instead of pinning the
	// server.
	writeTimeout = 10 * time.Second
)

type conn struct {
	nc net.Conn
	t  *tenant

	// Reader-owned: the requests admitted since the last flush, the
	// encoded replies waiting for it, and the first write error, which
	// ends the connection.
	items []item
	out   []byte
	werr  error

	// kicked marks a shutdown kick; the handshake-deadline reset
	// re-checks it so a kick can never be erased.
	kicked atomic.Bool
}

// kick interrupts the connection's blocked read (server shutdown).
func (c *conn) kick() {
	c.kicked.Store(true)
	c.nc.SetReadDeadline(time.Now())
}

// write sends b in one socket write under the write deadline. After
// the first failure it drops everything and kicks the reader: nobody
// is left to receive.
func (c *conn) write(b []byte) {
	if c.werr != nil || len(b) == 0 {
		return
	}
	c.nc.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, c.werr = c.nc.Write(b); c.werr != nil {
		c.kick()
	}
}

// reply queues f for the reader's next flush. The reader's replies
// (acks, Err) always encode.
func (c *conn) reply(f *wire.Frame) {
	c.out, _ = wire.AppendFrame(c.out, f)
}

// serve runs the admitted requests through the tenant, at most
// BatchLimit per ApplyBatch, and queues their acks.
func (c *conn) serve(batchLimit int) {
	for at := 0; at < len(c.items); at += batchLimit {
		c.t.serve(c.items[at:min(at+batchLimit, len(c.items))])
	}
	c.t.inflight.Add(-int64(len(c.items)))
	for i := range c.items {
		it := &c.items[i]
		if it.codes == nil {
			c.reply(&wire.Frame{Kind: wire.KindAck, ID: it.id, Code: it.code, Detail: it.detail})
			continue
		}
		it.codes[it.member] = it.code
		if it.last {
			c.reply(&wire.Frame{Kind: wire.KindBatchAck, ID: it.id, Codes: it.codes})
		}
	}
	c.items = c.items[:0]
}

// flush serves the admitted requests and writes every queued reply in
// one write.
func (c *conn) flush(batchLimit int) {
	c.serve(batchLimit)
	c.write(c.out)
	c.out = c.out[:0]
}

// fatal writes a connection-fatal Err frame directly (no conn exists
// yet) and is followed by connection close.
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

	c := &conn{nc: nc, t: t}
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

	c.reply(&wire.Frame{Kind: wire.KindWelcome, Shards: t.sched.Shards(), Machines: t.sched.Machines()})
	c.flush(s.cfg.BatchLimit)

	// Lift the handshake deadline — unless a shutdown kick raced the
	// reset, in which case re-arm it so the kick sticks.
	nc.SetReadDeadline(time.Time{})
	if c.kicked.Load() {
		nc.SetReadDeadline(time.Now())
	}

	s.readLoop(c, buf)
}

// readLoop dispatches frames until the connection ends (client close,
// protocol error, write failure or shutdown kick). It reads through one
// buffered reader, so a burst of pipelined frames costs one read, and
// before any read that could block it serves what it admitted and
// writes the acks. Whole frames can sit in the buffer past a kick's
// read deadline, so the kick is checked before each dispatch. Whatever
// was admitted when the loop ends is still served and acked.
func (s *Server) readLoop(c *conn, buf []byte) {
	br := bufio.NewReader(c.nc)
	defer c.flush(s.cfg.BatchLimit)
	for {
		if len(c.items) >= s.cfg.BatchLimit || !wire.FrameBuffered(br) {
			c.flush(s.cfg.BatchLimit)
		}
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			if isWireError(err) {
				s.cfg.Logf("server: %s tenant %q: protocol error: %v", c.nc.RemoteAddr(), c.t.name, err)
				c.reply(&wire.Frame{Kind: wire.KindErr, Code: wire.CodeBadRequest, Detail: err.Error()})
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
			// Serve this connection's batch, then wait out any batch
			// another connection of the tenant had begun serving.
			c.serve(s.cfg.BatchLimit)
			c.t.serve(nil)
			c.reply(&wire.Frame{Kind: wire.KindDrainAck, ID: f.ID, Code: wire.CodeOK})
		case wire.KindSnapshotReq:
			c.serve(s.cfg.BatchLimit)
			if err := c.snapshot(f.ID); err != nil {
				// Unencodable (a snapshot past the frame cap): end the
				// connection rather than leave the caller waiting.
				s.cfg.Logf("server: %s tenant %q: snapshot: %v", c.nc.RemoteAddr(), c.t.name, err)
				return
			}
		case wire.KindResize:
			c.serve(s.cfg.BatchLimit)
			c.resize(f.ID, f.Machines)
		default:
			c.reply(&wire.Frame{Kind: wire.KindErr, Code: wire.CodeBadRequest,
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

// expiry turns a wire deadline into an absolute expiry (zero = none).
// A deadline too large for a time.Duration saturates to none rather
// than wrapping into the past.
func expiry(deadlineUS uint64) time.Time {
	if deadlineUS == 0 || deadlineUS > math.MaxInt64/uint64(time.Microsecond) {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(deadlineUS) * time.Microsecond)
}

// submit admits one request into the reader's batch, or rejects it
// with an immediate verdict.
func (s *Server) submit(c *conn, f *wire.Frame) {
	if err := f.Req.Validate(); err != nil {
		c.reply(&wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeBadRequest, Detail: err.Error()})
		return
	}
	if c.t.inflight.Add(1) > int64(s.cfg.MaxInflight) {
		c.t.inflight.Add(-1)
		c.reply(&wire.Frame{Kind: wire.KindAck, ID: f.ID, Code: wire.CodeOverload,
			Detail: wire.ErrOverload.Error()})
		return
	}
	c.items = append(c.items, item{req: f.Req, exp: expiry(f.DeadlineUS), id: f.ID})
}

// submitBatch admits a Batch frame: all-or-nothing on the budget, one
// BatchAck with per-request codes once every member is served.
func (s *Server) submitBatch(c *conn, f *wire.Frame) {
	n := len(f.Batch)
	codes := make([]wire.Code, n)
	if c.t.inflight.Add(int64(n)) > int64(s.cfg.MaxInflight) {
		c.t.inflight.Add(int64(-n))
		for i := range codes {
			codes[i] = wire.CodeOverload
		}
		c.reply(&wire.Frame{Kind: wire.KindBatchAck, ID: f.ID, Codes: codes})
		return
	}
	exp := expiry(f.DeadlineUS)
	first := len(c.items)
	for i, r := range f.Batch {
		if err := r.Validate(); err != nil {
			codes[i] = wire.CodeBadRequest
			c.t.inflight.Add(-1)
			continue
		}
		c.items = append(c.items, item{req: r, exp: exp, id: f.ID, codes: codes, member: i})
	}
	if len(c.items) == first {
		c.reply(&wire.Frame{Kind: wire.KindBatchAck, ID: f.ID, Codes: codes})
		return
	}
	c.items[len(c.items)-1].last = true
}

// snapshot queues a consistent schedule snapshot. It fails, queueing
// nothing, only for a snapshot past the frame cap.
func (c *conn) snapshot(id uint64) error {
	snap := c.t.sched.Snapshot()
	placed := make([]wire.PlacedJob, 0, len(snap.Jobs))
	for _, j := range snap.Jobs {
		placed = append(placed, wire.PlacedJob{Job: j, Placement: snap.Assignment[j.Name]})
	}
	var err error
	c.out, err = wire.AppendFrame(c.out, &wire.Frame{Kind: wire.KindSnapshot, ID: id, Machines: snap.Machines, Jobs: placed})
	return err
}

// resize re-partitions the tenant's machine pool and queues the ack.
func (c *conn) resize(id uint64, machines int) {
	_, err := c.t.sched.Resize(machines)
	code, detail := codeOf(err)
	c.reply(&wire.Frame{Kind: wire.KindAck, ID: id, Code: code, Detail: detail})
}
