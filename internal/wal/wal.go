//reallocvet:deterministic
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// ErrClosed reports an append against a closed log. It aliases
// fault.ErrClosed, the repo-wide sentinel for the failure class.
var ErrClosed = fault.ErrClosed

// Segment header: magic + format version + segment number. Version 2
// carries checkpoints as records; a version 1 log kept its image in a
// separate file this code does not read, so it is refused.
const (
	segmentMagic   = "RWAL"
	segmentVersion = 2
	segHeaderLen   = 16 // magic + u32 version + u64 segment number
	segSuffix      = ".wal"
)

// errSegmentVersion refuses a segment of another format version. It is
// never mistaken for a torn header, which would drop the segment.
var errSegmentVersion = errors.New("unsupported segment version")

// Options configure a Log.
type Options struct {
	// Fsync makes every group commit fsync before acknowledging, for
	// durability against power loss. The default (false) is group-commit
	// write-back: records are written to the file before the ack — which
	// survives a process crash — and reach disk on the OS's schedule,
	// plus explicit syncs at checkpoint and Close.
	Fsync bool
	// Observer, when set, receives every byte range the log writes to a
	// segment file: p was written to segment seg starting at byte
	// offset off. Segment creation is observed as the 16-byte header at
	// offset 0; each group commit is observed as one contiguous span, and
	// a checkpoint as the next segment's header and then its image.
	//
	// The callback runs on the goroutine that commits the group (the
	// leader: a waiter, Checkpoint or Close) after the write (and fsync,
	// under Fsync) succeeds and BEFORE any Wait of the group returns —
	// this is the replication shipping point: an acknowledged record
	// has always been observed first, so a shipper that forwards
	// synchronously can guarantee acked ⇒ shipped. Calls never overlap.
	// The callback must not retain p (the buffer is reused) and must
	// not call back into the Log.
	Observer func(seg uint64, off int64, p []byte)
}

// Recovered is what Open (or Read) found in a log directory.
type Recovered struct {
	// Checkpoint is the image of the newest checkpoint record, nil if
	// the log has none.
	Checkpoint *Checkpoint
	// Records are the decoded log records after the checkpoint (or from
	// the start of the log), in append order: what to replay on top of
	// the image.
	Records []Record
	// TruncatedBytes counts torn-tail bytes dropped from the final
	// segment (Open also physically truncates them).
	TruncatedBytes int64
	// Empty reports a directory with no checkpoint and no records — a
	// fresh log.
	Empty bool
}

// Requests returns the total individual requests across all records.
func (r *Recovered) Requests() int {
	n := 0
	for _, rec := range r.Records {
		n += rec.Requests()
	}
	return n
}

// Ticket names an enqueued record: Wait(t) returns once the record is
// written. Tickets count up from 1 in enqueue order.
type Ticket uint64

// pollBudget bounds how long Wait polls for a group commit in progress
// before it parks: about what a park and a wake-up cost, so a write of a
// few microseconds is waited out without a futex wake-up (competitive
// spinning: Karlin, Li, Manasse and Owicki, SOSP 1991).
const pollBudget = 50 * time.Microsecond

// Log is an append-only write-ahead log over a directory of segment
// files. It is a lock, not a goroutine: Enqueue encodes a record into
// the pending group, and the first Wait that finds no write in progress
// becomes the leader and writes every pending record as one group
// commit. Checkpoint and Close take the leader role too, so the segment
// order of records matches their enqueue order. All methods are safe
// for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards closed, werr, pending and enq, and the hand-over of the
	// leader role; cond (on mu) wakes parked waiters when a leader ends.
	// writing (set while a leader holds the role) and written (the last
	// ticket written, advanced by the leader) are atomic, so a polling
	// waiter reads them without mu.
	mu      sync.Mutex
	cond    sync.Cond
	closed  bool
	werr    error  // sticky write failure: every later append fails fast
	pending []byte // encoded frames no leader has claimed yet
	enq     uint64 // last ticket issued
	written atomic.Uint64
	writing atomic.Bool

	// Leader-owned state: touched only by the holder of the leader role
	// (writing set), or by Open before the Log is shared.
	f   *os.File
	seg uint64
	off int64  // current write offset within seg (for Observer)
	buf []byte // the group being written; swapped with pending
}

// segPath returns the path of segment n.
func segPath(dir string, n uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", n, segSuffix))
}

// SegmentHeaderLen is the size of the fixed header opening every
// segment file; record frames start at this offset.
const SegmentHeaderLen = segHeaderLen

// SegmentPath returns the path of segment n in dir — the same naming
// Open uses, exported so replication can mirror segment files byte for
// byte.
func SegmentPath(dir string, n uint64) string { return segPath(dir, n) }

// listSegments returns the segment numbers present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []uint64
	for _, e := range entries {
		if n, ok := segNumber(e.Name()); ok && !e.IsDir() {
			segs = append(segs, n)
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	return segs, nil
}

// segNumber parses a segment filename, reporting whether it is one.
func segNumber(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	base := strings.TrimSuffix(name, segSuffix)
	if len(base) != 8 {
		return 0, false
	}
	n, err := strconv.ParseUint(base, 10, 64)
	if err != nil || n == 0 {
		return 0, false
	}
	return n, true
}

// recoveredState is the shared result of scanning a log directory.
type recoveredState struct {
	Recovered
	lastSeg   uint64 // highest segment present (0 if none)
	lastValid int64  // valid byte length of the last segment, incl. header
}

// ReplaySegments returns the segments recovery reads, ascending, with
// their bytes: from the newest one whose first record is an intact
// checkpoint through the last, or every segment from 1 when none opens
// with one. Segments before a checkpoint are neither returned nor
// required to be intact; without one, a missing segment 1 is data loss,
// not a fresh log. A gap in the run, or a segment of another format
// version, is an error.
func ReplaySegments(dir string) ([]uint64, [][]byte, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, err
	}
	data := make([][]byte, len(segs))
	first, prev := 0, uint64(0)
	for i := len(segs) - 1; i >= 0; i-- {
		if data[i], err = os.ReadFile(segPath(dir, segs[i])); err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		err := checkHeader(data[i], segs[i])
		if errors.Is(err, errSegmentVersion) {
			return nil, nil, fmt.Errorf("wal: segment %d: %w", segs[i], err)
		}
		if err == nil && opensWithCheckpoint(data[i][segHeaderLen:]) {
			first, prev = i, segs[i]-1
			break
		}
	}
	for _, n := range segs[first:] {
		if n != prev+1 {
			return nil, nil, fmt.Errorf("wal: segment %d follows %d — the log has a gap", n, prev)
		}
		prev = n
	}
	return segs[first:], data[first:], nil
}

// opensWithCheckpoint reports whether a segment's frames begin with an
// intact checkpoint record.
func opensWithCheckpoint(frames []byte) bool {
	if len(frames) < FrameHeaderLen {
		return false
	}
	n, ok := FrameLen(frames, min(maxRecordLen, len(frames)-FrameHeaderLen))
	return ok && frames[FrameHeaderLen] == byte(KindCheckpoint) &&
		FrameIntact(frames, frames[FrameHeaderLen:FrameHeaderLen+n])
}

// readState scans dir from the replay start (ReplaySegments): the
// newest checkpoint record and every record after it. It performs no
// writes.
func readState(dir string) (*recoveredState, error) {
	segs, data, err := ReplaySegments(dir)
	if err != nil {
		return nil, err
	}
	st := &recoveredState{}
	for i, n := range segs {
		last := i == len(segs)-1
		valid, recs, err := scanSegment(data[i], n)
		if err != nil && !last {
			return nil, fmt.Errorf("wal: segment %d: %v (only the final segment may have a torn tail)", n, err)
		}
		if !last && valid != int64(len(data[i])) {
			return nil, fmt.Errorf("wal: segment %d has %d invalid byte(s) mid-log (only the final segment may have a torn tail)",
				n, int64(len(data[i]))-valid)
		}
		if last {
			st.lastSeg, st.lastValid = n, valid
			st.TruncatedBytes = int64(len(data[i])) - valid
		}
		for k, rec := range recs {
			if rec.Kind != KindCheckpoint {
				st.Records = append(st.Records, rec)
				continue
			}
			if i > 0 || k > 0 {
				return nil, fmt.Errorf("wal: segment %d holds a checkpoint record at position %d — only a segment's first record may be one", n, k)
			}
			st.Checkpoint = rec.Checkpoint
		}
		if i == 0 && n > 1 && st.Checkpoint == nil {
			return nil, fmt.Errorf("wal: segment %d: its checkpoint record does not decode", n)
		}
	}
	st.Empty = st.Checkpoint == nil && len(st.Records) == 0
	return st, nil
}

// scanSegment validates a segment's header and scans its records,
// returning the valid byte length (>= 0, including the header when it
// checks out). A bad or short header yields valid 0 and an error; bad
// frames after a good header yield the truncation point without error.
func scanSegment(data []byte, wantSeg uint64) (int64, []Record, error) {
	if err := checkHeader(data, wantSeg); err != nil {
		return 0, nil, err
	}
	recs, valid := ScanRecords(data[segHeaderLen:])
	return segHeaderLen + int64(valid), recs, nil
}

// checkHeader validates the header at the start of segment wantSeg's
// data. A header naming another format version fails with
// errSegmentVersion.
func checkHeader(data []byte, wantSeg uint64) error {
	switch {
	case len(data) < segHeaderLen:
		return fmt.Errorf("short segment header (%d bytes)", len(data))
	case string(data[:4]) != segmentMagic:
		return errors.New("bad segment magic")
	case binary.LittleEndian.Uint32(data[4:]) != segmentVersion:
		return fmt.Errorf("%w %d (this build reads version %d)", errSegmentVersion, binary.LittleEndian.Uint32(data[4:]), segmentVersion)
	case binary.LittleEndian.Uint64(data[8:]) != wantSeg:
		return fmt.Errorf("segment header claims number %d", binary.LittleEndian.Uint64(data[8:]))
	}
	return nil
}

// segmentHeader renders the 16-byte header of segment n.
func segmentHeader(n uint64) []byte {
	b := make([]byte, 0, segHeaderLen)
	b = append(b, segmentMagic...)
	b = binary.LittleEndian.AppendUint32(b, segmentVersion)
	b = binary.LittleEndian.AppendUint64(b, n)
	return b
}

// Read scans a log directory without modifying it: torn tails are
// reported, not truncated. Use it for offline inspection (waldump).
func Read(dir string) (*Recovered, error) {
	st, err := readState(dir)
	if err != nil {
		return nil, err
	}
	return &st.Recovered, nil
}

// Open prepares dir for logging: it creates the directory if needed,
// loads the newest checkpoint and every record after it, truncates a torn
// tail in the final segment, and returns a Log positioned to append
// after the last valid record. The caller owns both results; the
// Recovered state describes what a recovery must replay.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	st, err := readState(dir)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{dir: dir, opts: opts}
	l.cond.L = &l.mu
	if st.lastValid < segHeaderLen {
		// A fresh directory, or a final segment whose header itself is
		// torn: write the segment from scratch under its own number.
		l.seg = max(st.lastSeg, 1)
		f, err := createSegment(dir, l.seg, nil)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
		l.off = segHeaderLen
		l.observe(l.seg, 0, segmentHeader(l.seg))
	} else {
		l.seg = st.lastSeg
		path := segPath(dir, l.seg)
		if st.TruncatedBytes > 0 {
			if err := os.Truncate(path, st.lastValid); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.off = st.lastValid
	}
	return l, &st.Recovered, nil
}

// observe forwards a written span to the Observer, if any.
func (l *Log) observe(seg uint64, off int64, p []byte) {
	if l.opts.Observer != nil {
		l.opts.Observer(seg, off, p)
	}
}

// createSegment creates (truncating if present) segment n with its
// header and the first frame head written in one write and synced, and
// the directory entry synced.
func createSegment(dir string, n uint64, head []byte) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, n), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(append(segmentHeader(n), head...)); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	syncDir(dir)
	return f, nil
}

// syncDir best-effort fsyncs a directory so a segment's creation is
// durable (not supported on every platform; errors are ignored).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// Enqueue encodes rec into the pending group and returns its ticket;
// Wait(ticket) returns once the record is written. A record that cannot
// be encoded, or an Enqueue after Close or after a write failure, gets
// the error and no ticket.
func (l *Log) Enqueue(rec Record) (Ticket, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return 0, ErrClosed
	case l.werr != nil:
		return 0, l.werr
	}
	var err error
	if l.pending, err = AppendFrame(l.pending, rec); err != nil {
		return 0, err
	}
	l.enq++
	return Ticket(l.enq), nil
}

// Wait returns once ticket t's record is written (and synced, under
// Options.Fsync): nil, or the write error of its group. A waiter that
// finds no write in progress becomes the leader and writes every
// pending record itself. One that finds a write in progress polls for
// up to pollBudget (when more than one P can run the writer) and then
// parks until the writer ends.
func (l *Log) Wait(t Ticket) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	polled := false
	for {
		switch {
		case uint64(t) <= l.written.Load():
			return nil
		case l.werr != nil:
			return l.werr
		case !l.writing.Load():
			l.end(l.begin())
		case !polled && runtime.GOMAXPROCS(0) > 1:
			polled = true
			l.mu.Unlock()
			l.poll(t)
			l.mu.Lock()
		default:
			l.cond.Wait()
		}
	}
}

// poll spins, yielding its P, until t is written, the write in progress
// ends, or pollBudget passes.
func (l *Log) poll(t Ticket) {
	for start := time.Now(); time.Since(start) < pollBudget; runtime.Gosched() {
		if uint64(t) <= l.written.Load() || !l.writing.Load() {
			return
		}
	}
}

// begin takes the leader role, which the caller found free with mu
// held. It claims every pending record, releases mu and writes them as
// one group commit: one write (plus one fsync under Options.Fsync), then
// the Observer, then the written mark, so a waiter that sees its ticket
// written knows its record was shipped. After a write failure the group
// is dropped unwritten. begin returns holding the role but not mu; end
// gives the role back.
func (l *Log) begin() error {
	l.writing.Store(true)
	l.buf, l.pending = l.pending, l.buf[:0]
	last, failed := l.enq, l.werr != nil
	l.mu.Unlock()
	if failed || len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: append: %w", err)
	}
	if l.opts.Fsync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	l.observe(l.seg, l.off, l.buf)
	l.off += int64(len(l.buf))
	l.written.Store(last)
	return nil
}

// end retakes mu, records err as the sticky write error (the first one
// wins), gives the leader role back and wakes the parked waiters.
func (l *Log) end(err error) {
	l.mu.Lock()
	if err != nil && l.werr == nil {
		l.werr = err
	}
	l.writing.Store(false)
	l.cond.Broadcast()
}

// Append writes one record and returns once its group commit completes.
func (l *Log) Append(rec Record) error {
	t, err := l.Enqueue(rec)
	if err != nil {
		return err
	}
	return l.Wait(t)
}

// Checkpoint writes ck as the first record of a fresh segment and then
// removes every older segment: recovery restores the newest image and
// replays only the records after it. The image is encoded first, so one
// that cannot be framed (over the record cap, or invalid) fails before
// the log changes. As the leader, Checkpoint writes the pending group,
// syncs and closes the segment, and writes the next segment's header
// and the image in one synced write, whatever Options.Fsync says; the
// Observer sees both before any older segment is removed. Records
// enqueued before Checkpoint land before the image, records enqueued
// after it land after.
func (l *Log) Checkpoint(ck *Checkpoint) error {
	frame, err := AppendFrame(nil, Record{Kind: KindCheckpoint, Checkpoint: ck})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writing.Load() {
		l.cond.Wait()
	}
	switch {
	case l.closed:
		return ErrClosed
	case l.werr != nil:
		return l.werr
	}
	if err = l.begin(); err == nil {
		err = l.rotate(frame)
	}
	l.end(err)
	if err != nil {
		return err
	}
	// The image is durable; the segments before it are dead weight.
	// Pruning is best-effort: recovery never reads them.
	segs, _ := listSegments(l.dir)
	for _, n := range segs {
		if n < l.seg {
			_ = os.Remove(segPath(l.dir, n))
		}
	}
	return nil
}

// rotate syncs and closes the current segment and opens the next with
// head as its first frame. The caller holds the leader role.
func (l *Log) rotate(head []byte) error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	_ = l.f.Close()
	next := l.seg + 1
	f, err := createSegment(l.dir, next, head)
	if err != nil {
		return err
	}
	l.f = f
	l.seg = next
	l.observe(next, 0, segmentHeader(next))
	l.observe(next, segHeaderLen, head)
	l.off = segHeaderLen + int64(len(head))
	return nil
}

// Close writes every pending record, syncs, and closes the segment
// file. Enqueues after Close fail with ErrClosed. Close is idempotent,
// and every call — including concurrent and repeated ones — waits for
// the final write and reports the sticky write error, so no caller can
// observe "closed cleanly" while another sees the failure.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for l.writing.Load() {
		l.cond.Wait()
	}
	if l.f == nil {
		return l.werr // an earlier Close finished
	}
	err := l.begin()
	if serr := l.f.Sync(); serr != nil && err == nil {
		err = fmt.Errorf("wal: fsync: %w", serr)
	}
	_ = l.f.Close()
	l.f = nil
	l.end(err)
	return l.werr
}
