package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

// FollowerConfig configures a warm follower.
type FollowerConfig struct {
	// Primary is the primary's replication address (host:port).
	Primary string
	// Dir is the follower's replication root: the fencing-epoch file
	// lives directly under it and each tenant's mirrored WAL in
	// Dir/TenantDir(tenant).
	Dir string
	// NewScheduler builds a tenant's warm scheduler from the checkpoint
	// record that opens its shipped log (ck is nil when the log opens
	// with no checkpoint). Normally a realloc.NewShardedFromCheckpoint
	// closure; it must use the same options the primary runs with so
	// tail replay reproduces the primary's decisions.
	NewScheduler func(tenant string, ck *wal.Checkpoint) (*shard.Scheduler, error)
	// Fsync is passed to the WALs opened at promotion.
	Fsync bool
	// PromoteAfter, when positive, self-promotes after the primary has
	// been silent this long: no frame received (the primary heartbeats
	// every SourceConfig.HeartbeatEvery, so a healthy idle primary is
	// never silent) and no successful handshake. It fires even while
	// the TCP connection stays established — a wedged primary or a
	// data-blackholing partition looks exactly like a dead one. Must
	// be several multiples of the primary's heartbeat interval. Zero
	// means only an explicit Promote frame or PromoteNow promotes.
	PromoteAfter time.Duration
	// RedialEvery is the pause between dial attempts (default 250ms).
	RedialEvery time.Duration
	// Logf receives operational log lines (default: discard).
	Logf func(format string, args ...any)
}

func (c *FollowerConfig) fill() error {
	if c.Primary == "" {
		return errors.New("repl: FollowerConfig.Primary is empty")
	}
	if c.Dir == "" {
		return errors.New("repl: FollowerConfig.Dir is empty")
	}
	if c.NewScheduler == nil {
		return errors.New("repl: FollowerConfig.NewScheduler is nil")
	}
	if c.RedialEvery <= 0 {
		c.RedialEvery = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// replica is one tenant's warm state: the scheduler records replay
// into (built at the first complete record), the mirror of the
// primary's segment files, and the ingest cursor that keeps the byte
// stream contiguous.
type replica struct {
	tenant string
	dir    string
	sched  *shard.Scheduler

	minSeg  uint64           // the segment the install began at
	seg     uint64           // segment currently being ingested (0 = none yet)
	written int64            // contiguous bytes ingested into seg
	done    map[uint64]int64 // finished segments -> their final size
	file    *os.File         // mirror of segment seg
	buf     []byte           // ingested bytes not yet forming a whole record
	hdrSkip int              // header bytes of seg still to drop before records

	installed bool
	records   int
	requests  int
	failures  int
}

// FollowerStats is a point-in-time snapshot of a follower's progress.
type FollowerStats struct {
	Tenants   int     // tenants with state installed
	Warm      int     // tenants fully installed (snapshot complete)
	Records   int     // WAL records replayed across all tenants
	Requests  int     // individual requests those records carried
	Failures  int     // replay rejections (requests the primary also rejected)
	Epoch     uint64  // highest fencing epoch seen (or persisted)
	Promoted  bool    // promotion has completed
	PromoteMS float64 // wall-clock promotion work, milliseconds
	Reason    string  // what triggered the promotion
}

// Follower mirrors a primary's WALs and keeps warm schedulers one
// record behind the primary's acknowledgements. Run drives it; after
// promotion (explicit, manual, or timeout) the schedulers are
// WAL-attached and ready to serve, and Adopt hands them out.
type Follower struct {
	cfg FollowerConfig

	mu       sync.Mutex
	tenants  map[string]*replica
	epoch    uint64
	promoted bool
	stats    FollowerStats

	promoteReq atomic.Bool // PromoteNow was called
	promotedCh chan struct{}
	closedCh   chan struct{}
	closeOnce  sync.Once

	connMu sync.Mutex
	conn   net.Conn // live primary connection, for interrupt kicks
}

// NewFollower builds a Follower rooted at cfg.Dir, resuming the
// persisted fencing epoch if one exists.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	epoch, err := ReadEpoch(cfg.Dir)
	if err != nil {
		return nil, err
	}
	return &Follower{
		cfg:        cfg,
		tenants:    make(map[string]*replica),
		epoch:      epoch,
		promotedCh: make(chan struct{}),
		closedCh:   make(chan struct{}),
	}, nil
}

// Promoted is closed once promotion completes.
func (f *Follower) Promoted() <-chan struct{} { return f.promotedCh }

// Epoch returns the highest fencing epoch seen so far.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Stats snapshots replication progress.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Epoch = f.epoch
	st.Promoted = f.promoted
	for _, r := range f.tenants {
		st.Tenants++
		if r.installed {
			st.Warm++
		}
		st.Records += r.records
		st.Requests += r.requests
		st.Failures += r.failures
	}
	return st
}

// PromoteNow promotes without waiting for a Promote frame or the
// primary-loss timeout. Safe from any goroutine; idempotent.
func (f *Follower) PromoteNow() {
	f.promoteReq.Store(true)
	f.kickConn()
}

// Close stops Run without promoting. The replicas are discarded.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() { close(f.closedCh) })
	f.kickConn()
	return nil
}

// stopping reports whether Close or PromoteNow has been called.
func (f *Follower) stopping() bool {
	select {
	case <-f.closedCh:
		return true
	default:
		return f.promoteReq.Load()
	}
}

func (f *Follower) kickConn() {
	f.connMu.Lock()
	if f.conn != nil {
		f.conn.Close()
	}
	f.connMu.Unlock()
}

func (f *Follower) setConn(nc net.Conn) {
	f.connMu.Lock()
	f.conn = nc
	f.connMu.Unlock()
}

// Adopt hands tenant's promoted scheduler to the caller (nil if the
// follower never installed that tenant). Call only after Promoted is
// closed; ownership transfers, and a second Adopt returns nil.
func (f *Follower) Adopt(tenant string) *shard.Scheduler {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.tenants[tenant]
	if r == nil || !f.promoted {
		return nil
	}
	delete(f.tenants, tenant)
	return r.sched
}

// Run follows the primary until promotion or Close: dial, handshake,
// ingest frames; on connection loss redial, and if the primary stays
// silent past PromoteAfter (when set), self-promote. Silence is
// measured from the last frame received — NOT from connection state
// or session boundaries — so a primary that wedges while the kernel
// keeps answering keepalives, or accepts dials but never completes a
// handshake, still trips the timeout. Returns nil after a successful
// promotion or Close, an error only for fatal local failures (a
// corrupt mirror, a failed promotion).
func (f *Follower) Run() error {
	lastContact := time.Now()
	for {
		select {
		case <-f.closedCh:
			f.discard()
			return nil
		default:
		}
		if f.promoteReq.Load() {
			return f.promote(0, "operator request")
		}
		if f.cfg.PromoteAfter > 0 && time.Since(lastContact) >= f.cfg.PromoteAfter {
			return f.promote(0, fmt.Sprintf("primary unreachable for %v", f.cfg.PromoteAfter))
		}
		nc, err := net.DialTimeout("tcp", f.cfg.Primary, dialTimeout)
		if err != nil {
			f.sleep()
			continue
		}
		promoted, serr := f.session(nc, &lastContact)
		nc.Close()
		f.setConn(nil)
		if promoted {
			return serr
		}
		if serr != nil {
			var fatal *fatalError
			if errors.As(serr, &fatal) {
				f.discard()
				return serr
			}
			f.cfg.Logf("repl: session ended: %v", serr)
		}
		f.sleep()
	}
}

func (f *Follower) sleep() {
	select {
	case <-time.After(f.cfg.RedialEvery):
	case <-f.closedCh:
	}
}

// fatalError marks local failures no reconnect can fix.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// idleReader sets a fresh read deadline before every Read, so the
// wrapped connection's timeout measures inter-byte silence rather than
// total frame transfer time: a slow-but-flowing snapshot chunk keeps
// extending the deadline, a wedged primary does not.
type idleReader struct {
	nc     net.Conn
	window time.Duration
}

func (ir idleReader) Read(p []byte) (int, error) {
	ir.nc.SetReadDeadline(time.Now().Add(ir.window))
	return ir.nc.Read(p)
}

// session runs one primary connection: handshake, then the frame loop.
// It returns (true, err) when the session ended in a promotion, and
// stamps *lastContact with every frame received so the caller's
// primary-loss accounting is keyed to proof of life, not to session
// boundaries.
func (f *Follower) session(nc net.Conn, lastContact *time.Time) (bool, error) {
	f.setConn(nc)
	f.mu.Lock()
	epoch := f.epoch
	f.mu.Unlock()
	buf, err := wire.WriteFrame(nc, nil, &wire.Frame{Kind: wire.KindFollow, Version: wire.Version, Epoch: epoch})
	if err != nil {
		return false, err
	}
	nc.SetReadDeadline(time.Now().Add(dialTimeout))
	fr, buf, err := wire.ReadFrame(nc, buf)
	if err != nil {
		return false, err
	}
	switch fr.Kind {
	case wire.KindFollowAck:
	case wire.KindErr:
		return false, fmt.Errorf("repl: primary refused follow: %s (%s)", fr.Code, fr.Detail)
	default:
		return false, fmt.Errorf("repl: expected FollowAck, got %v", fr.Kind)
	}
	f.mu.Lock()
	if fr.Epoch > f.epoch {
		f.epoch = fr.Epoch
	}
	f.mu.Unlock()
	*lastContact = time.Now()
	f.cfg.Logf("repl: following %s at epoch %d", f.cfg.Primary, fr.Epoch)

	// The frame loop reads through an idle deadline: PromoteAfter when
	// set (silence promotes), idleTimeout otherwise (silence redials).
	// The primary heartbeats between data frames, so only a wedged or
	// partitioned primary ever goes silent that long. One buffered
	// reader over it turns a burst of frames into one read.
	window := idleTimeout
	if f.cfg.PromoteAfter > 0 && f.cfg.PromoteAfter < window {
		window = f.cfg.PromoteAfter
	}
	r := bufio.NewReader(idleReader{nc: nc, window: window})
	for {
		fr, buf, err = wire.ReadFrame(r, buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				if f.cfg.PromoteAfter > 0 && time.Since(*lastContact) >= f.cfg.PromoteAfter {
					f.cfg.Logf("repl: primary silent for %v with the connection still up; treating it as lost", time.Since(*lastContact))
					return true, f.promote(0, fmt.Sprintf("primary silent for %v", f.cfg.PromoteAfter))
				}
				return false, fmt.Errorf("repl: no frame from primary in %v; dropping the session", window)
			}
			// Connection loss, Close, or a PromoteNow kick. The read
			// loop has already ingested everything the primary managed
			// to send before dying — the kernel delivers buffered bytes
			// even after a SIGKILL.
			return false, err
		}
		if f.stopping() {
			// Close's and PromoteNow's kick closed the connection, but
			// whole frames can still sit in the buffered reader.
			return false, net.ErrClosed
		}
		*lastContact = time.Now()
		switch fr.Kind {
		case wire.KindPing:
			// Heartbeat: its arrival already refreshed lastContact.
		case wire.KindCheckpointInstall:
			err = f.install(fr.Tenant, fr.Data)
		case wire.KindSegmentChunk, wire.KindTail:
			err = f.ingest(fr.Tenant, fr.Seg, fr.Off, fr.Data)
		case wire.KindInstalled:
			err = f.markInstalled(fr.Tenant)
		case wire.KindPromote:
			f.cfg.Logf("repl: primary handed off: %s", fr.Detail)
			if perr := f.promote(fr.Epoch, "primary handoff"); perr != nil {
				return true, perr
			}
			nc.SetWriteDeadline(time.Now().Add(dialTimeout))
			wire.WriteFrame(nc, buf[:0], &wire.Frame{Kind: wire.KindPromoteAck, Epoch: f.Epoch()})
			return true, nil
		default:
			err = fmt.Errorf("repl: unexpected %v frame", fr.Kind)
		}
		if err != nil {
			return false, err
		}
	}
}

// install begins (or restarts) tenant's snapshot: wipe the local
// mirror and drop the replica. The scheduler is built later, from the
// first complete record the install ships (apply), or at Installed for
// an empty log. A reconnect replays the whole install, so any partial
// state from a broken session is discarded wholesale.
func (f *Follower) install(tenant string, data []byte) error {
	if len(data) > 0 {
		return fmt.Errorf("repl: the primary shipped a %d-byte checkpoint file for %q: it writes an older log format", len(data), tenant)
	}
	dir := filepath.Join(f.cfg.Dir, TenantDir(tenant))
	f.mu.Lock()
	if old := f.tenants[tenant]; old != nil {
		old.close()
		delete(f.tenants, tenant)
	}
	f.mu.Unlock()
	if err := os.RemoveAll(dir); err != nil {
		return &fatalError{fmt.Errorf("repl: reset mirror for %q: %w", tenant, err)}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return &fatalError{fmt.Errorf("repl: create mirror for %q: %w", tenant, err)}
	}
	f.mu.Lock()
	f.tenants[tenant] = &replica{tenant: tenant, dir: dir, done: make(map[uint64]int64)}
	f.mu.Unlock()
	f.cfg.Logf("repl: installing %q", tenant)
	return nil
}

// build gives r its warm scheduler, restored from ck (nil: empty). The
// caller holds f.mu; build releases it around NewScheduler, the
// caller's code. Nothing else changes a replica meanwhile: only the
// session goroutine, which is waiting here, installs, ingests and
// promotes.
func (f *Follower) build(r *replica, ck *wal.Checkpoint) error {
	f.mu.Unlock()
	s, err := f.cfg.NewScheduler(r.tenant, ck)
	f.mu.Lock()
	if err != nil {
		return &fatalError{fmt.Errorf("repl: build scheduler for %q: %w", r.tenant, err)}
	}
	r.sched = s
	return nil
}

func (f *Follower) markInstalled(tenant string) error {
	f.mu.Lock()
	r := f.tenants[tenant]
	var err error
	if r != nil && r.sched == nil {
		err = f.build(r, nil) // the shipped log holds no record yet
	}
	if r != nil && err == nil {
		r.installed = true
	}
	f.mu.Unlock()
	if r != nil && err == nil {
		f.cfg.Logf("repl: %q installed (%d records replayed so far)", tenant, r.records)
	}
	return err
}

// ingest feeds one shipped byte span into tenant's replica: mirror it
// to the local segment file and replay every newly completed record.
// Spans for one tenant arrive in replayable order (install chunks,
// then the tails buffered during install, then live tails), possibly
// overlapping; the (seg, written) cursor dedupes overlaps and rejects
// gaps — a gap means the stream is corrupt and the session must
// restart with a fresh install.
func (f *Follower) ingest(tenant string, seg uint64, off int64, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := f.tenants[tenant]
	if r == nil {
		return fmt.Errorf("repl: span for %q before its CheckpointInstall", tenant)
	}
	if seg < r.minSeg {
		return nil // older than the segment the install began at
	}
	if r.seg != 0 && seg < r.seg {
		// A replayed overlap from the install/live handover: it must be
		// fully contained in what we already ingested.
		if end, ok := r.done[seg]; !ok || off+int64(len(data)) > end {
			return fmt.Errorf("repl: %q segment %d span [%d,%d) outside ingested prefix", tenant, seg, off, off+int64(len(data)))
		}
		return nil
	}
	if r.seg == 0 || seg > r.seg {
		// Advancing to a new segment: the previous one must have ended
		// on a record boundary, and the new one must start at 0.
		if len(r.buf) > 0 {
			return fmt.Errorf("repl: %q segment %d ended mid-record (%d dangling bytes)", tenant, r.seg, len(r.buf))
		}
		if off != 0 {
			return fmt.Errorf("repl: %q segment %d starts at offset %d, want 0", tenant, seg, off)
		}
		if r.seg == 0 {
			r.minSeg = seg
		}
		if r.file != nil {
			r.done[r.seg] = r.written
			r.file.Close()
		}
		file, err := os.OpenFile(wal.SegmentPath(r.dir, seg), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return &fatalError{fmt.Errorf("repl: mirror segment %d for %q: %w", seg, tenant, err)}
		}
		r.seg, r.written, r.file, r.hdrSkip = seg, 0, file, wal.SegmentHeaderLen
	}
	if off > r.written {
		return fmt.Errorf("repl: %q segment %d gap: span starts at %d, ingested through %d", tenant, seg, off, r.written)
	}
	if _, err := r.file.WriteAt(data, off); err != nil {
		return &fatalError{fmt.Errorf("repl: mirror write %q segment %d: %w", tenant, seg, err)}
	}
	if off+int64(len(data)) <= r.written {
		return nil // complete overlap, already replayed
	}
	fresh := data[r.written-off:]
	r.written += int64(len(fresh))
	if r.hdrSkip > 0 {
		n := r.hdrSkip
		if n > len(fresh) {
			n = len(fresh)
		}
		r.hdrSkip -= n
		fresh = fresh[n:]
	}
	r.buf = append(r.buf, fresh...)
	recs, valid := wal.ScanRecords(r.buf)
	for _, rec := range recs {
		if err := f.apply(r, rec); err != nil {
			return &fatalError{fmt.Errorf("repl: replay for %q: %w", tenant, err)}
		}
	}
	r.buf = r.buf[:copy(r.buf, r.buf[valid:])]
	return nil
}

// apply replays one record through the scheduler's one replay path
// (logging off — the same call realloc.OpenRecovered makes) and counts
// it. The replica's first record builds its scheduler: from the image
// when it is a checkpoint, empty before replaying it otherwise. A later
// checkpoint (the primary checkpointed while this replica was live)
// images the state the scheduler already holds, so it is mirrored but
// not replayed. An error means the record was refused, not that a
// request failed.
func (f *Follower) apply(r *replica, rec wal.Record) error {
	if rec.Kind == wal.KindCheckpoint {
		if r.sched == nil {
			return f.build(r, rec.Checkpoint)
		}
		return nil
	}
	if r.sched == nil {
		if err := f.build(r, nil); err != nil {
			return err
		}
	}
	failed, err := r.sched.Replay(rec)
	if err != nil {
		return err
	}
	r.records++
	r.requests += rec.Requests()
	r.failures += failed
	return nil
}

func (r *replica) close() {
	if r.file != nil {
		r.file.Close()
		r.file = nil
	}
	if r.sched != nil {
		r.sched.Close()
		r.sched = nil
	}
}

// discard drops every replica without promoting (Close path).
func (f *Follower) discard() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for t, r := range f.tenants {
		r.close()
		delete(f.tenants, t)
	}
}

// promote turns the follower into a primary: persist the fencing epoch
// (max(seen, wire)+1 for self-promotion, the wire epoch for an
// explicit handoff), then for every installed tenant sync the mirror,
// open its WAL, and attach it to the warm scheduler. After promote the
// schedulers append to their own logs and Adopt hands them out.
// Partially installed tenants are discarded loudly AND durably: their
// mirrors are an incomplete prefix of the primary's WAL, so a
// tombstone (MarkDiscarded) blocks any later recovery path from
// silently serving that stale state. After a self-promotion (no
// Promote frame sealed the old primary) a background loop dials the
// old primary with the new epoch until it is fenced.
func (f *Follower) promote(wireEpoch uint64, reason string) error {
	start := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil
	}
	newEpoch := wireEpoch
	if newEpoch <= f.epoch {
		newEpoch = f.epoch + 1
	}
	// The fence: the epoch is durable BEFORE any write is accepted, so
	// a zombie primary can be recognized by any future follower.
	if err := WriteEpoch(f.cfg.Dir, newEpoch); err != nil {
		return &fatalError{fmt.Errorf("repl: persist epoch %d: %w", newEpoch, err)}
	}
	f.epoch = newEpoch
	for t, r := range f.tenants {
		if !r.installed {
			f.cfg.Logf("repl: DISCARDING partially installed tenant %q at promotion: its mirror is incomplete", t)
			r.close()
			delete(f.tenants, t)
			if err := MarkDiscarded(r.dir, fmt.Sprintf("install incomplete at promotion (%s)", reason)); err != nil {
				return &fatalError{fmt.Errorf("repl: tombstone discarded tenant %q: %w", t, err)}
			}
			continue
		}
		if r.file != nil {
			if err := r.file.Sync(); err != nil {
				return &fatalError{fmt.Errorf("repl: sync mirror for %q: %w", t, err)}
			}
			r.file.Close()
			r.file = nil
		}
		// wal.Open re-reads the mirror (validating headers and CRCs)
		// and truncates any trailing partial record — bytes the replica
		// ingested but never replayed, so the on-disk log and the warm
		// scheduler end at the same record.
		log, _, err := wal.Open(r.dir, wal.Options{Fsync: f.cfg.Fsync})
		if err != nil {
			return &fatalError{fmt.Errorf("repl: open promoted WAL for %q: %w", t, err)}
		}
		r.sched.AttachWAL(log)
	}
	f.promoted = true
	f.stats.PromoteMS = float64(time.Since(start).Microseconds()) / 1000
	f.stats.Reason = reason
	close(f.promotedCh)
	f.cfg.Logf("repl: PROMOTED at epoch %d in %.1fms (%s)", newEpoch, f.stats.PromoteMS, reason)
	if wireEpoch == 0 {
		// Self-promotion: the old primary never sealed itself and may
		// still be alive behind an asymmetric partition, acking writes
		// the new epoch will never have. Nothing in the topology would
		// ever carry the new epoch to it (a promoted follower serves,
		// it does not dial), so carry it there explicitly.
		go f.fenceOldPrimary(newEpoch)
	}
	return nil
}

// Session timeouts.
const (
	// idleTimeout bounds inter-byte silence on a session when
	// PromoteAfter is zero (or longer): a session that silent is torn
	// down and redialed rather than blocking in a read forever.
	idleTimeout = 15 * time.Second
	// dialTimeout bounds each dial and the handshake read.
	dialTimeout = 5 * time.Second
)

// fenceRetryEvery paces fenceOldPrimary's dial attempts.
const fenceRetryEvery = time.Second

// fenceOldPrimary dials the deposed primary's replication address with
// the new epoch until the handshake is refused with CodeFenced (the
// old primary has recorded its deposition and sealed) or the follower
// is closed. This actively closes the split-brain window a unilateral
// promotion opens; the window itself is documented in the README.
func (f *Follower) fenceOldPrimary(epoch uint64) {
	var buf []byte
	for {
		select {
		case <-f.closedCh:
			return
		default:
		}
		nc, err := net.DialTimeout("tcp", f.cfg.Primary, dialTimeout)
		if err == nil {
			nc.SetDeadline(time.Now().Add(dialTimeout))
			buf, err = wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindFollow, Version: wire.Version, Epoch: epoch})
			if err == nil {
				fr, rbuf, rerr := wire.ReadFrame(nc, buf)
				buf = rbuf
				if rerr == nil && fr.Kind == wire.KindErr && fr.Code == wire.CodeFenced {
					nc.Close()
					f.cfg.Logf("repl: old primary at %s acknowledged the fence at epoch %d", f.cfg.Primary, epoch)
					return
				}
			}
			nc.Close()
		}
		select {
		case <-f.closedCh:
			return
		case <-time.After(fenceRetryEvery):
		}
	}
}
