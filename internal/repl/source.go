package repl

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// SourceConfig configures the primary's shipping side.
type SourceConfig struct {
	// Epoch is this primary's fencing epoch (0 for a first-generation
	// primary; a promoted follower restarts as a primary with the epoch
	// it persisted). A follower connecting with a HIGHER epoch proves
	// this primary has been deposed: the connection is refused with
	// CodeFenced and Fenced() starts reporting true.
	Epoch uint64
	// WriteTimeout bounds every frame write to a follower (default 5s).
	// A follower too slow to keep up is dropped rather than allowed to
	// stall the primary's WAL group commits.
	WriteTimeout time.Duration
	// PromoteTimeout bounds each of Handoff's two waits: for a fully
	// warm follower to hand off to, and then for that follower's
	// PromoteAck (default 30s each).
	PromoteTimeout time.Duration
	// HeartbeatEvery is the pause between Ping frames to each follower
	// (default 100ms). Heartbeats let a follower distinguish an idle
	// primary from a wedged one: followers key their primary-loss
	// timeout off the last frame received, so PromoteAfter on the
	// follower side must be several multiples of this interval.
	HeartbeatEvery time.Duration
	// OnFenced, when set, is called exactly once when a follower with
	// a higher epoch connects: this primary has been deposed and must
	// seal its write path. Called from a connection handler goroutine.
	OnFenced func()
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c *SourceConfig) fill() {
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.PromoteTimeout <= 0 {
		c.PromoteTimeout = 30 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// feed is one tenant's registered WAL: the directory the Source reads
// snapshots from and the identity live tails are tagged with.
type feed struct {
	src    *Source
	tenant string
	dir    string
}

// Source is the primary-side replication endpoint: it accepts follower
// connections, streams each registered tenant's segments from its
// newest checkpoint record on and then its live tail, and can hand the
// primary role to a follower.
type Source struct {
	cfg SourceConfig

	mu     sync.Mutex
	ln     net.Listener
	feeds  map[string]*feed
	conns  map[*srcConn]struct{}
	closed bool
	sealed bool // Handoff closed the listener; Serve exits cleanly
	fenced bool
	done   chan struct{} // closed by Close; stops heartbeat goroutines
	wg     sync.WaitGroup
}

// NewSource builds a Source. Call Export for each tenant WAL before
// opening it, then Serve on a listener.
func NewSource(cfg SourceConfig) *Source {
	cfg.fill()
	return &Source{
		cfg:   cfg,
		feeds: make(map[string]*feed),
		conns: make(map[*srcConn]struct{}),
		done:  make(chan struct{}),
	}
}

// Fenced reports whether a follower with a higher epoch has connected:
// this primary has been deposed and must stop accepting writes.
func (s *Source) Fenced() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fenced
}

// Followers reports how many follower connections are up, and how many
// of them are warm (every registered tenant fully installed and
// receiving live tails).
func (s *Source) Followers() (total, warm int) {
	s.mu.Lock()
	conns := make([]*srcConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	want := len(s.feeds)
	s.mu.Unlock()
	for _, c := range conns {
		total++
		if c.liveTenants() >= want {
			warm++
		}
	}
	return total, warm
}

// Export registers tenant's WAL directory for shipping and returns the
// observer to pass as wal.Options.Observer (realloc.WithWALObserver).
// Call it BEFORE opening the tenant's WAL so the very first observed
// span (the segment header) is captured; followers connected at that
// point begin their snapshot transfer immediately.
func (s *Source) Export(tenant, dir string) func(seg uint64, off int64, p []byte) {
	f := &feed{src: s, tenant: tenant, dir: dir}
	s.mu.Lock()
	s.feeds[tenant] = f
	conns := make([]*srcConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.beginInstall(f)
	}
	return f.observe
}

// observe is the wal.Options.Observer hook: fan the span out to every
// connection. It runs on the goroutine committing the tenant's WAL
// group, before the group's acks — a slow follower is bounded by
// WriteTimeout, not allowed to wedge the log's commits forever.
func (f *feed) observe(seg uint64, off int64, p []byte) {
	s := f.src
	s.mu.Lock()
	conns := make([]*srcConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.tail(f.tenant, seg, off, p)
	}
}

// Serve accepts follower connections on ln until Close. It returns
// nil after Close, like server.Serve.
func (s *Source) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("repl: source is closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			done := s.closed || s.sealed
			s.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(nc)
		}()
	}
}

// Listen starts serving on addr in a background goroutine and returns
// the bound address.
func (s *Source) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.Serve(ln)
	}()
	return ln.Addr(), nil
}

// Close stops accepting followers, drops every connection, and waits
// for the handler goroutines. Idempotent.
func (s *Source) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	close(s.done)
	ln := s.ln
	conns := make([]*srcConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.fail(errors.New("repl: source closed"))
	}
	s.wg.Wait()
	return nil
}

// Handoff hands the primary role to a fully warm connected follower:
// it stops accepting new followers, waits (bounded by PromoteTimeout)
// for a follower with every registered tenant installed and its
// buffered tails flushed, sends it Promote with epoch+1, and waits for
// the PromoteAck that confirms the follower is serving. The caller
// must have sealed the write path first (server.Handoff closes the
// Server before calling this) — a primary must never acknowledge a
// write after Promote is sent. Returns the new epoch.
//
// A follower that never warms within the bound refuses the handoff:
// promoting it would discard its still-installing tenants — including
// writes this primary already acked — so the caller must fall back to
// a plain drain instead.
func (s *Source) Handoff(reason string) (uint64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, errors.New("repl: source is closed")
	}
	s.sealed = true
	if s.ln != nil {
		// Seal membership: no follower connected after the handoff
		// decision can win the promotion.
		s.ln.Close()
	}
	s.mu.Unlock()
	// The write path is already sealed, so no new tails arrive: every
	// in-flight install either completes (flushing its pending tails
	// as it flips to live) or fails its connection. Poll until one
	// follower holds everything this primary acked.
	deadline := time.Now().Add(s.cfg.PromoteTimeout)
	var target *srcConn
	for {
		s.mu.Lock()
		want := len(s.feeds)
		conns := make([]*srcConn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		var cand *srcConn
		best := -1
		for _, c := range conns {
			if n := c.liveTenants(); n > best {
				best, cand = n, c
			}
		}
		if cand == nil {
			return 0, errors.New("repl: no follower connected")
		}
		if best >= want {
			target = cand
			break
		}
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("repl: no warm follower within %v (best has %d/%d tenants installed); refusing handoff",
				s.cfg.PromoteTimeout, best, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	newEpoch := s.cfg.Epoch + 1
	if !target.write(&wire.Frame{Kind: wire.KindPromote, Epoch: newEpoch, Detail: reason}) {
		return 0, errors.New("repl: promote write failed")
	}
	select {
	case acked := <-target.promoteAck:
		if acked != newEpoch {
			return 0, fmt.Errorf("repl: follower acked epoch %d, want %d", acked, newEpoch)
		}
	case <-time.After(s.cfg.PromoteTimeout):
		return 0, errors.New("repl: timed out waiting for PromoteAck")
	}
	s.cfg.Logf("repl: handed off to follower at epoch %d (%s)", newEpoch, reason)
	return newEpoch, nil
}

// Shipping limits.
const (
	// chunkBytes caps each SegmentChunk/Tail frame's Data (at most
	// wire.MaxChunk).
	chunkBytes = 256 << 10
	// maxPending caps the bytes of live tails buffered per connection
	// while a tenant's snapshot transfer is still in flight. Overflow
	// drops the connection; the follower reconnects and reinstalls.
	maxPending = 64 << 20
)

// Per-tenant shipping state on one connection.
const (
	stateBuffering  = iota // no install started: hold tails
	stateInstalling        // snapshot transfer in flight: hold tails
	stateLive              // installed: write tails through
)

type srcConn struct {
	src *Source
	nc  net.Conn

	// mu serializes the write side and guards the state below. Lock
	// ordering: Source.mu is never acquired while holding srcConn.mu.
	mu           sync.Mutex
	wbuf         []byte
	state        map[string]int
	pending      map[string][]wire.Frame
	pendingBytes int
	dead         bool
	// live counts the tenants flipped to stateLive. It is written under
	// mu but read without it, so a Handoff or Followers poll never waits
	// behind a write wedged on a follower that stopped reading.
	live atomic.Int32

	promoteAck chan uint64
}

// handle runs one follower connection: handshake, install kickoff, and
// then a read loop whose only legitimate inbound frame is PromoteAck.
func (s *Source) handle(nc net.Conn) {
	defer nc.Close()
	nc.SetReadDeadline(time.Now().Add(s.cfg.WriteTimeout))
	f, buf, err := wire.ReadFrame(nc, nil)
	if err != nil {
		s.cfg.Logf("repl: follower handshake read: %v", err)
		return
	}
	if f.Kind != wire.KindFollow {
		s.cfg.Logf("repl: expected Follow, got %v", f.Kind)
		return
	}
	// Refusal writes happen before the conn is registered in s.conns,
	// so Close cannot interrupt them: bound them with the same write
	// deadline writeLocked uses, or a peer that never reads could
	// stall this wg-tracked handler and delay Close.
	nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if f.Version != wire.Version {
		wire.WriteFrame(nc, buf[:0], &wire.Frame{Kind: wire.KindErr, Code: wire.CodeBadRequest,
			Detail: fmt.Sprintf("unsupported version %d", f.Version)})
		return
	}
	if f.Epoch > s.cfg.Epoch {
		// The fencing rule: a follower that promoted past us proves we
		// are deposed. Tell it, record it, and refuse to ship.
		s.mu.Lock()
		already := s.fenced
		s.fenced = true
		s.mu.Unlock()
		s.cfg.Logf("repl: FENCED: follower has epoch %d > our %d; this primary is deposed", f.Epoch, s.cfg.Epoch)
		if !already && s.cfg.OnFenced != nil {
			s.cfg.OnFenced()
		}
		wire.WriteFrame(nc, buf[:0], &wire.Frame{Kind: wire.KindErr, Code: wire.CodeFenced,
			Detail: fmt.Sprintf("primary epoch %d below follower epoch %d", s.cfg.Epoch, f.Epoch)})
		return
	}
	nc.SetReadDeadline(time.Time{})
	nc.SetWriteDeadline(time.Time{})

	c := &srcConn{
		src:        s,
		nc:         nc,
		state:      make(map[string]int),
		pending:    make(map[string][]wire.Frame),
		promoteAck: make(chan uint64, 1),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[c] = struct{}{}
	feeds := make([]*feed, 0, len(s.feeds))
	for _, fd := range s.feeds {
		feeds = append(feeds, fd)
	}
	s.mu.Unlock()

	if !c.write(&wire.Frame{Kind: wire.KindFollowAck, Epoch: s.cfg.Epoch}) {
		s.dropConn(c)
		return
	}
	s.cfg.Logf("repl: follower connected from %s (%d tenants to install)", nc.RemoteAddr(), len(feeds))
	// Not wg-tracked, like install goroutines: the heartbeat exits on
	// its next tick once the connection fails or the source closes.
	go c.heartbeat(s.cfg.HeartbeatEvery, s.done)
	for _, fd := range feeds {
		c.beginInstall(fd)
	}

	// The follower sends nothing after the handshake except a
	// PromoteAck; the read loop's real job is detecting disconnect.
	for {
		f, buf, err = wire.ReadFrame(nc, buf)
		if err != nil {
			s.dropConn(c)
			return
		}
		if f.Kind == wire.KindPromoteAck {
			select {
			case c.promoteAck <- f.Epoch:
			default:
			}
			continue
		}
		s.cfg.Logf("repl: unexpected %v frame from follower; dropping", f.Kind)
		s.dropConn(c)
		return
	}
}

func (s *Source) dropConn(c *srcConn) {
	c.fail(errors.New("repl: connection dropped"))
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// heartbeat writes Ping frames until the connection dies or the
// source closes. Pings interleave between data frames under c.mu, so
// an idle-but-healthy primary still proves its liveness to followers
// that bound the gap between frames.
func (c *srcConn) heartbeat(every time.Duration, done <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			if !c.write(&wire.Frame{Kind: wire.KindPing}) {
				return
			}
		}
	}
}

func (c *srcConn) liveTenants() int { return int(c.live.Load()) }

// fail poisons the connection: every later write is a no-op and the
// socket is closed, which unblocks the handler's read loop. The close
// happens BEFORE taking c.mu: a write in flight under the lock (a
// wedged follower partway through its WriteTimeout) is interrupted
// immediately instead of holding fail — and through it Source.Close —
// until the deadline expires.
func (c *srcConn) fail(err error) {
	c.nc.Close()
	c.mu.Lock()
	c.failLocked(err)
	c.mu.Unlock()
}

func (c *srcConn) failLocked(err error) {
	if c.dead {
		return
	}
	c.dead = true
	c.pending = nil
	c.src.cfg.Logf("repl: dropping follower %s: %v", c.nc.RemoteAddr(), err)
	c.nc.Close()
}

func (c *srcConn) write(f *wire.Frame) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writeLocked(f)
}

func (c *srcConn) writeLocked(f *wire.Frame) bool {
	if c.dead {
		return false
	}
	c.nc.SetWriteDeadline(time.Now().Add(c.src.cfg.WriteTimeout))
	var err error
	c.wbuf, err = wire.WriteFrame(c.nc, c.wbuf, f)
	if err != nil {
		c.failLocked(err)
		return false
	}
	return true
}

// tail ships one observed WAL span. Live tenants get it written
// through immediately (on the goroutine committing the WAL group,
// before the acks — the zero-lost-acks shipping point); tenants still
// installing get it buffered, bounded by maxPending.
func (c *srcConn) tail(tenant string, seg uint64, off int64, p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return
	}
	for start := 0; start < len(p); start += chunkBytes {
		end := start + chunkBytes
		if end > len(p) {
			end = len(p)
		}
		f := wire.Frame{Kind: wire.KindTail, Tenant: tenant, Seg: seg, Off: off + int64(start), Data: p[start:end]}
		if c.state[tenant] == stateLive {
			if !c.writeLocked(&f) {
				return
			}
			continue
		}
		// Buffering (pre-install or mid-install): copy, because the WAL
		// reuses p after the observer returns.
		f.Data = append([]byte(nil), f.Data...)
		c.pending[tenant] = append(c.pending[tenant], f)
		c.pendingBytes += len(f.Data)
		if c.pendingBytes > maxPending {
			c.failLocked(fmt.Errorf("pending tail buffer exceeded %d bytes during install", maxPending))
			return
		}
	}
}

// beginInstall starts tenant f's snapshot transfer on this connection
// if it has not already started. Idempotent under the state map.
func (c *srcConn) beginInstall(f *feed) {
	c.mu.Lock()
	if c.dead || c.state[f.tenant] != stateBuffering {
		c.mu.Unlock()
		return
	}
	c.state[f.tenant] = stateInstalling
	c.mu.Unlock()
	// Not wg-tracked: an install goroutine exits promptly once the
	// connection fails (every write short-circuits), and tracking it
	// would race Export-triggered installs against Close's Wait.
	go c.install(f)
}

// install transfers tenant f's snapshot: the CheckpointInstall marker,
// then every segment from the replay start (wal.ReplaySegments: the
// newest checkpoint record on) in chunks, then (atomically with going
// live) the tails buffered while the transfer ran, then Installed. File
// reads happen without holding c.mu, so live tails keep buffering in
// parallel. A segment that vanishes while it is read (a checkpoint
// pruned it) fails the connection; the follower reconnects and
// reinstalls from the newer checkpoint.
func (c *srcConn) install(f *feed) {
	segs, data, err := wal.ReplaySegments(f.dir)
	if err != nil {
		c.fail(fmt.Errorf("read segments for %q: %w", f.tenant, err))
		return
	}
	if !c.write(&wire.Frame{Kind: wire.KindCheckpointInstall, Tenant: f.tenant}) {
		return
	}
	for i, n := range segs {
		for off := 0; off < len(data[i]); off += chunkBytes {
			end := min(off+chunkBytes, len(data[i]))
			if !c.write(&wire.Frame{Kind: wire.KindSegmentChunk, Tenant: f.tenant,
				Seg: n, Off: int64(off), Data: data[i][off:end]}) {
				return
			}
		}
	}
	// Flush the tails that accumulated during the transfer and flip to
	// live under one critical section: nothing can interleave between
	// the last buffered tail and the first written-through one.
	c.mu.Lock()
	defer c.mu.Unlock()
	pend := c.pending[f.tenant]
	for i := range pend {
		c.pendingBytes -= len(pend[i].Data)
		if !c.writeLocked(&pend[i]) {
			return
		}
	}
	if c.dead {
		return
	}
	delete(c.pending, f.tenant)
	c.state[f.tenant] = stateLive
	c.live.Add(1)
	c.writeLocked(&wire.Frame{Kind: wire.KindInstalled, Tenant: f.tenant})
}
