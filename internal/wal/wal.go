//reallocvet:deterministic
package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
)

// ErrClosed reports an append against a closed log. It aliases
// fault.ErrClosed, the repo-wide sentinel for the failure class.
var ErrClosed = fault.ErrClosed

// Segment header: magic + format version + segment number.
const (
	segmentMagic   = "RWAL"
	segmentVersion = 1
	segHeaderLen   = 16 // magic + u32 version + u64 segment number
	segSuffix      = ".wal"
	checkpointName = "checkpoint"
)

// Options configure a Log.
type Options struct {
	// Fsync makes every group commit fsync before acknowledging, for
	// durability against power loss. The default (false) is group-commit
	// write-back: records are written to the file before the ack — which
	// survives a process crash — and reach disk on the OS's schedule,
	// plus explicit syncs at rotation, checkpoint, and Close.
	Fsync bool
	// GroupLimit caps how many queued records one group commit drains
	// (default 256).
	GroupLimit int
	// Buffer is the append queue capacity (default 1024). Appends past
	// it block: backpressure on the requests that enqueue them.
	Buffer int
	// Observer, when set, receives every byte range the log writes to a
	// segment file: p was written to segment seg starting at byte
	// offset off. Segment creation is observed as the 16-byte header at
	// offset 0; each group commit is observed as one contiguous span.
	//
	// The callback runs on the flusher goroutine after the write (and
	// fsync, under Fsync) succeeds and BEFORE the group's
	// acknowledgement callbacks — this is the replication shipping
	// point: an acknowledged record has always been observed first, so
	// a shipper that forwards synchronously can guarantee acked ⇒
	// shipped. The callback must not retain p (the buffer is reused)
	// and must not call back into the Log. Checkpoint files are NOT
	// observed; replication transfers them at follower connect instead.
	Observer func(seg uint64, off int64, p []byte)
}

func (o *Options) fill() {
	if o.GroupLimit <= 0 {
		o.GroupLimit = 256
	}
	if o.Buffer <= 0 {
		o.Buffer = 1024
	}
}

// Recovered is what Open (or Read) found in a log directory.
type Recovered struct {
	// Checkpoint is the restored checkpoint image, nil if none exists.
	Checkpoint *Checkpoint
	// Records are the decoded log records to replay on top of the
	// checkpoint, in append order.
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

// pend is one queued flusher work item: an append (rec + done) or a
// rotation barrier (rotate non-nil).
type pend struct {
	rec    Record
	done   func(error)
	rotate chan rotateReply
}

type rotateReply struct {
	seg uint64
	err error
}

// Log is an append-only write-ahead log over a directory of segment
// files. Appends are safe for concurrent use; rotation and checkpoint
// writes serialize through the same flusher so the segment ordering of
// records matches their acknowledgement order.
type Log struct {
	dir  string
	opts Options

	// mu guards closed and the channel send: enqueuers hold the read
	// side, Close holds the write side while closing the channel.
	mu     sync.RWMutex
	closed bool
	ch     chan pend
	done   chan struct{}

	// Flusher-owned state (no locking: only the flusher goroutine
	// touches it after Open returns).
	f    *os.File
	seg  uint64
	off  int64 // current write offset within seg (for Observer)
	buf  []byte
	werr error // sticky write failure: every later append fails fast
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

// CheckpointPath returns the path of dir's checkpoint file.
func CheckpointPath(dir string) string { return filepath.Join(dir, checkpointName) }

// ListSegments returns the segment numbers present in dir, ascending.
func ListSegments(dir string) ([]uint64, error) {
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

// readState scans dir: checkpoint, segment list, and every record from
// the checkpoint's start segment on. It performs no writes.
func readState(dir string) (*recoveredState, error) {
	st := &recoveredState{}
	ckData, err := os.ReadFile(filepath.Join(dir, checkpointName))
	switch {
	case err == nil:
		ck, derr := DecodeCheckpoint(ckData)
		if derr != nil {
			return nil, fmt.Errorf("wal: reading checkpoint in %s: %w", dir, derr)
		}
		st.Checkpoint = ck
	case !os.IsNotExist(err):
		return nil, fmt.Errorf("wal: reading checkpoint: %w", err)
	}

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

	start := uint64(1)
	if st.Checkpoint != nil && st.Checkpoint.StartSeg > 1 {
		start = st.Checkpoint.StartSeg
	}
	// Replayed segments must be contiguous FROM THE START segment: a
	// missing first segment (e.g. the checkpoint's StartSeg was deleted
	// while a later segment survived) is data loss, not a fresh log.
	prev := start - 1
	for i, n := range segs {
		st.lastSeg = n
		if n < start {
			continue // covered by the checkpoint; prune-eligible
		}
		if n != prev+1 {
			return nil, fmt.Errorf("wal: segment %d follows %d — the log has a gap", n, prev)
		}
		prev = n
		data, err := os.ReadFile(segPath(dir, n))
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		last := i == len(segs)-1
		valid, recs, err := scanSegment(data, n)
		if err != nil && !last {
			return nil, fmt.Errorf("wal: segment %d: %v (only the final segment may have a torn tail)", n, err)
		}
		if !last && valid != int64(len(data)) {
			return nil, fmt.Errorf("wal: segment %d has %d invalid byte(s) mid-log (only the final segment may have a torn tail)",
				n, int64(len(data))-valid)
		}
		if last {
			st.lastValid = valid
			st.TruncatedBytes = int64(len(data)) - valid
		}
		st.Records = append(st.Records, recs...)
	}
	if st.lastSeg == 0 {
		st.lastValid = 0
	}
	st.Empty = st.Checkpoint == nil && len(st.Records) == 0
	return st, nil
}

// scanSegment validates a segment's header and scans its records,
// returning the valid byte length (>= 0, including the header when it
// checks out). A bad or short header yields valid 0 and an error; bad
// frames after a good header yield the truncation point without error.
func scanSegment(data []byte, wantSeg uint64) (int64, []Record, error) {
	if len(data) < segHeaderLen {
		return 0, nil, fmt.Errorf("short segment header (%d bytes)", len(data))
	}
	if string(data[:4]) != segmentMagic {
		return 0, nil, fmt.Errorf("bad segment magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != segmentVersion {
		return 0, nil, fmt.Errorf("unsupported segment version %d", v)
	}
	if n := binary.LittleEndian.Uint64(data[8:]); n != wantSeg {
		return 0, nil, fmt.Errorf("segment header claims number %d", n)
	}
	recs, valid := ScanRecords(data[segHeaderLen:])
	return segHeaderLen + int64(valid), recs, nil
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
// loads the checkpoint and every replayable record, truncates a torn
// tail in the final segment, and returns a Log positioned to append
// after the last valid record. The caller owns both results; the
// Recovered state describes what a recovery must replay.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	st, err := readState(dir)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{
		dir:  dir,
		opts: opts,
		ch:   make(chan pend, opts.Buffer),
		done: make(chan struct{}),
	}
	start := uint64(1)
	if st.Checkpoint != nil && st.Checkpoint.StartSeg > 1 {
		start = st.Checkpoint.StartSeg
	}
	switch {
	case st.lastSeg < start:
		// Fresh directory, or a checkpoint whose covered segments were
		// all pruned: create the segment replay starts from. (Appending
		// below the checkpoint's start would write records recovery
		// never reads.)
		l.seg = start
		f, err := createSegment(dir, l.seg)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
		l.off = segHeaderLen
		l.observe(l.seg, 0, segmentHeader(l.seg))
	case st.lastValid < segHeaderLen:
		// The final segment's header itself is torn: rewrite the file
		// from scratch under its own number.
		l.seg = st.lastSeg
		f, err := createSegment(dir, l.seg)
		if err != nil {
			return nil, nil, err
		}
		l.f = f
		l.off = segHeaderLen
		l.observe(l.seg, 0, segmentHeader(l.seg))
	default:
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
	go l.run()
	return l, &st.Recovered, nil
}

// observe forwards a written span to the Observer, if any.
func (l *Log) observe(seg uint64, off int64, p []byte) {
	if l.opts.Observer != nil {
		l.opts.Observer(seg, off, p)
	}
}

// createSegment creates (truncating if present) segment n with its
// header written and synced, and the directory entry synced.
func createSegment(dir string, n uint64) (*os.File, error) {
	f, err := os.OpenFile(segPath(dir, n), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Write(segmentHeader(n)); err != nil {
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

// syncDir best-effort fsyncs a directory so renames and creations are
// durable (not supported on every platform; errors are ignored).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// WriteFileSync replaces path with data durably: it writes a temp file
// beside path, fsyncs and closes it, renames it over path, and syncs
// the directory. On failure the temp file is removed and path is left
// as it was.
func WriteFileSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// Enqueue hands a record to the group-commit flusher. done runs exactly
// once — after the record's group is written (and synced, under
// Options.Fsync) — with nil on success or the write error. done is
// invoked on the flusher goroutine and must not block on it.
func (l *Log) Enqueue(rec Record, done func(error)) {
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		if done != nil {
			done(ErrClosed)
		}
		return
	}
	l.ch <- pend{rec: rec, done: done}
	l.mu.RUnlock()
}

// Append writes one record and blocks until its group commit completes.
func (l *Log) Append(rec Record) error {
	ch := make(chan error, 1)
	l.Enqueue(rec, func(err error) { ch <- err })
	return <-ch
}

// Rotate flushes every queued record into the current segment, syncs
// and closes it, and opens the next segment. It returns the new segment
// number: records enqueued before Rotate land in earlier segments,
// records enqueued after land in the returned one (or later).
func (l *Log) Rotate() (uint64, error) {
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return 0, ErrClosed
	}
	reply := make(chan rotateReply, 1)
	l.ch <- pend{rotate: reply}
	l.mu.RUnlock()
	r := <-reply
	return r.seg, r.err
}

// WriteCheckpoint atomically installs ck as the directory's checkpoint
// (temp file + rename) and prunes segments below ck.StartSeg. Callers
// obtain StartSeg from Rotate so the checkpoint covers every record of
// the pruned segments.
func (l *Log) WriteCheckpoint(ck Checkpoint) error {
	data, err := EncodeCheckpoint(&ck)
	if err != nil {
		return err
	}
	if err := WriteFileSync(filepath.Join(l.dir, checkpointName), data); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	// The checkpoint is durable; segments it covers are dead weight.
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil // pruning is best-effort
	}
	for _, e := range entries {
		if n, ok := segNumber(e.Name()); ok && n < ck.StartSeg {
			_ = os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
	return nil
}

// ReadCheckpoint loads and decodes dir's checkpoint, returning nil (no
// error) when none exists.
func ReadCheckpoint(dir string) (*Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return DecodeCheckpoint(data)
}

// Close flushes every queued record, syncs, and closes the segment
// file. Appends after Close fail with ErrClosed. Close is idempotent,
// and every call — including concurrent and repeated ones — waits for
// the flusher to finish and reports the sticky write error, so no
// caller can observe "closed cleanly" while another sees the failure.
func (l *Log) Close() error {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.ch)
	}
	l.mu.Unlock()
	<-l.done
	// Reading werr is safe here: the flusher's close(l.done) happens
	// after its last write to werr.
	return l.werr
}

// run is the flusher loop: drain a group, encode it, one write (plus
// one fsync under Options.Fsync), then acknowledge each record.
//
// Ack guarantee: every pend that made it into l.ch gets its callback
// (or rotate reply) exactly once before l.done closes. The main loop
// upholds it by flushing everything it dequeues; the drain loop after
// it upholds it structurally — Close closes l.ch only after every
// in-flight Enqueue has completed its send, so ranging the closed
// channel visits any item a future refactor of the fill loop might
// leave behind, instead of silently dropping its ack.
func (l *Log) run() {
	defer close(l.done)
	batch := make([]pend, 0, l.opts.GroupLimit)
	open := true
	for open {
		p, ok := <-l.ch
		if !ok {
			break
		}
		if p.rotate != nil {
			l.doRotate(p.rotate)
			continue
		}
		batch = append(batch[:0], p)
		var rot chan rotateReply
	fill:
		for len(batch) < l.opts.GroupLimit {
			select {
			case p2, ok2 := <-l.ch:
				if !ok2 {
					open = false
					break fill
				}
				if p2.rotate != nil {
					rot = p2.rotate
					break fill
				}
				batch = append(batch, p2)
			default:
				break fill
			}
		}
		l.flush(batch)
		if rot != nil {
			l.doRotate(rot)
		}
	}
	// Backstop drain: the channel is closed, so this terminates. Any
	// remaining record is still written and acknowledged — the segment
	// file is open until finalize — never dropped.
	for p := range l.ch {
		if p.rotate != nil {
			l.doRotate(p.rotate)
			continue
		}
		l.flush(append(batch[:0], p))
	}
	l.finalize()
}

// flush writes one group commit and runs its callbacks.
func (l *Log) flush(batch []pend) {
	l.buf = l.buf[:0]
	encErr := make([]error, len(batch))
	for i, p := range batch {
		if l.werr != nil {
			encErr[i] = l.werr
			continue
		}
		next, err := AppendFrame(l.buf, p.rec)
		if err != nil {
			encErr[i] = err
			continue
		}
		l.buf = next
	}
	if l.werr == nil && len(l.buf) > 0 {
		if _, err := l.f.Write(l.buf); err != nil {
			l.werr = fmt.Errorf("wal: append: %w", err)
		} else if l.opts.Fsync {
			if err := l.f.Sync(); err != nil {
				l.werr = fmt.Errorf("wal: fsync: %w", err)
			}
		}
		if l.werr == nil {
			// Ship before acknowledging: the Observer (replication) sees
			// every group before any of its done callbacks can run.
			l.observe(l.seg, l.off, l.buf)
			l.off += int64(len(l.buf))
		}
	}
	for i, p := range batch {
		if p.done == nil {
			continue
		}
		err := encErr[i]
		if err == nil {
			err = l.werr
		}
		p.done(err)
	}
}

// doRotate syncs and closes the current segment and opens the next.
func (l *Log) doRotate(reply chan rotateReply) {
	if l.werr != nil {
		reply <- rotateReply{seg: l.seg, err: l.werr}
		return
	}
	if err := l.f.Sync(); err != nil {
		l.werr = fmt.Errorf("wal: fsync: %w", err)
		reply <- rotateReply{seg: l.seg, err: l.werr}
		return
	}
	_ = l.f.Close()
	next := l.seg + 1
	f, err := createSegment(l.dir, next)
	if err != nil {
		l.werr = err
		reply <- rotateReply{seg: l.seg, err: err}
		return
	}
	l.f = f
	l.seg = next
	l.off = segHeaderLen
	l.observe(next, 0, segmentHeader(next))
	reply <- rotateReply{seg: next}
}

// finalize flushes nothing (the queue is drained), syncs, and closes.
func (l *Log) finalize() {
	if l.f != nil {
		if err := l.f.Sync(); err != nil && l.werr == nil {
			l.werr = fmt.Errorf("wal: fsync: %w", err)
		}
		_ = l.f.Close()
	}
}
