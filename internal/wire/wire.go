// Package wire is the reallocd network protocol: length-prefixed,
// CRC-framed binary frames over a byte stream. It has no codec of its
// own: the frame envelope (wal.OpenFrame/SealFrame, wal.FrameLen,
// wal.FrameIntact), the bounded payload reader (wal.Reader) and the
// request and placed-job encodings (wal.AppendRequest, wal.AppendPlaced)
// all live in internal/wal — the on-disk request format IS the network
// format, so a server can hand a submitted payload to the durability
// layer without re-encoding.
//
// # Frame layout
//
// Every frame is
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload's first byte the frame kind and the rest the
// kind-specific body. All integers are little-endian; variable-length
// fields use Go's varint encodings. Limits on every count and length
// field reject corrupt or hostile frames before they can drive a large
// allocation; a frame that fails any check is a protocol error and the
// connection is torn down (streams cannot resynchronize after a bad
// length prefix).
//
// # Conversation
//
// A connection opens with Hello (protocol version + tenant name) and
// Welcome (the tenant's shard and machine geometry). After that the
// client streams Submit/Batch/Drain/Resize/SnapshotReq frames, each
// carrying a client-chosen correlation ID, and the server answers each
// — in completion order, not submission order — with Ack, BatchAck,
// DrainAck, or Snapshot carrying the same ID. Err is reserved for
// connection-fatal failures (bad hello, unknown frame): it carries no
// ID and the server closes after sending it.
//
// Submit and Batch carry an optional relative deadline in
// microseconds; overload rejections (the server's per-tenant admission
// budget) come back as CodeOverload acks, never by blocking the
// stream.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/wal"
)

// Version is the protocol version carried in Hello; a server rejects a
// mismatch with a fatal Err frame.
const Version = 1

// ErrOverload is the sentinel for CodeOverload: the tenant's inflight
// budget is exhausted and the request was rejected — not queued — so
// the caller should back off and retry. It aliases fault.ErrOverload,
// the repo-wide sentinel for the failure class.
var ErrOverload = fault.ErrOverload

// Kind identifies a frame's payload type.
type Kind uint8

const (
	// KindHello opens a connection: version, tenant name.
	KindHello Kind = 1
	// KindWelcome accepts a Hello: the tenant's shard and machine counts.
	KindWelcome Kind = 2
	// KindSubmit is one request: id, deadline, request payload.
	KindSubmit Kind = 3
	// KindBatch is one request batch: id, deadline, request payloads.
	KindBatch Kind = 4
	// KindAck answers Submit: id, code, optional detail.
	KindAck Kind = 5
	// KindBatchAck answers Batch: id, per-request codes.
	KindBatchAck Kind = 6
	// KindErr is a connection-fatal server error: code, detail.
	KindErr Kind = 7
	// KindDrain asks the server to settle every async submission: id.
	KindDrain Kind = 8
	// KindDrainAck answers Drain: id, code, optional detail.
	KindDrainAck Kind = 9
	// KindResize re-partitions the tenant's machine pool: id, machines.
	KindResize Kind = 10
	// KindSnapshotReq asks for a consistent schedule snapshot: id.
	KindSnapshotReq Kind = 11
	// KindSnapshot answers SnapshotReq: id, machines, placed jobs.
	KindSnapshot Kind = 12
)

// Replication frames (kinds 13..20), spoken between a primary's
// internal/repl Source and a warm follower.
//
// # The fencing-epoch rule
//
// Every primary serves under a fencing epoch, a monotonically
// increasing uint64 persisted beside its WAL. The rule, in full:
//
//  1. A follower opens with Follow carrying the highest epoch it has
//     ever observed. A primary whose own epoch is LOWER has been
//     deposed (some follower was promoted past it): it must answer
//     with a fatal Err frame carrying CodeFenced and stop accepting
//     writes. Otherwise it answers FollowAck with its epoch, which
//     the follower adopts.
//  2. Promotion — graceful (Promote frame from the old primary) or
//     unilateral (the follower timing out on a dead primary) — moves
//     the follower to epoch+1. The follower must persist the new
//     epoch BEFORE accepting its first client write.
//  3. A primary must never acknowledge a client write after sending
//     Promote; the internal/server Handoff seals (drains and closes)
//     the serving stack first, which is what makes the epoch a fence
//     and not a suggestion.
//
// After FollowAck the primary streams, per tenant: one
// CheckpointInstall (the marker that an install begins, its data
// empty), SegmentChunk frames covering the WAL segments from the newest
// checkpoint record on (wal.ReplaySegments; the image travels inside
// them as the first record), then Installed — after which only live
// Tail frames follow.
// SegmentChunk and Tail carry identical (seg, off, data) payloads; the
// two kinds are kept distinct so a follower can tell snapshot transfer
// from live shipping, and because the streams may interleave with
// overlapping offsets (overlap is deduplicated by offset, never
// conflicting: both sides are verbatim WAL bytes).
const (
	// KindFollow opens a replication connection: version, epoch.
	KindFollow Kind = 13
	// KindFollowAck accepts a Follow: the primary's epoch.
	KindFollowAck Kind = 14
	// KindCheckpointInstall begins a tenant's snapshot: tenant, data.
	// The data is empty: the checkpoint image is a WAL record, shipped
	// in the SegmentChunk frames that follow (a primary that wrote its
	// image to a separate file sent it here, and is refused). It resets
	// any prior replica state the follower holds for the tenant.
	KindCheckpointInstall Kind = 15
	// KindSegmentChunk is one span of a WAL segment file during
	// snapshot transfer: tenant, seg, off, data.
	KindSegmentChunk Kind = 16
	// KindTail is one live group commit (or segment header), shipped
	// as it is written: tenant, seg, off, data.
	KindTail Kind = 17
	// KindInstalled marks the end of a tenant's snapshot transfer:
	// tenant. The follower's replica of the tenant is warm from here.
	KindInstalled Kind = 18
	// KindPromote hands the primary role to the follower: epoch (the
	// new fencing epoch), detail (human-readable reason).
	KindPromote Kind = 19
	// KindPromoteAck confirms a Promote after the follower is serving:
	// epoch.
	KindPromoteAck Kind = 20
	// KindPing is a primary→follower heartbeat with no body. Followers
	// treat any frame as proof of life and key their primary-loss
	// timeout off the last frame received, so a primary that wedges
	// while the kernel keeps its TCP connection established is still
	// detected.
	KindPing Kind = 21
)

func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindWelcome:
		return "welcome"
	case KindSubmit:
		return "submit"
	case KindBatch:
		return "batch"
	case KindAck:
		return "ack"
	case KindBatchAck:
		return "batchack"
	case KindErr:
		return "err"
	case KindDrain:
		return "drain"
	case KindDrainAck:
		return "drainack"
	case KindResize:
		return "resize"
	case KindSnapshotReq:
		return "snapshotreq"
	case KindSnapshot:
		return "snapshot"
	case KindFollow:
		return "follow"
	case KindFollowAck:
		return "followack"
	case KindCheckpointInstall:
		return "checkpointinstall"
	case KindSegmentChunk:
		return "segmentchunk"
	case KindTail:
		return "tail"
	case KindInstalled:
		return "installed"
	case KindPromote:
		return "promote"
	case KindPromoteAck:
		return "promoteack"
	case KindPing:
		return "ping"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Code is a per-request outcome carried in Ack/BatchAck/DrainAck (and
// in fatal Err frames).
type Code uint8

const (
	// CodeOK: the request executed successfully.
	CodeOK Code = 0
	// CodeOverload: rejected by admission control, never executed.
	CodeOverload Code = 1
	// CodeDeadline: the request's deadline expired before execution.
	CodeDeadline Code = 2
	// CodeInfeasible: no machine can host the job's window.
	CodeInfeasible Code = 3
	// CodeDuplicate: insert of a name that is already active.
	CodeDuplicate Code = 4
	// CodeUnknownJob: delete of a name that is not active.
	CodeUnknownJob Code = 5
	// CodeClosed: the tenant (or server) is shutting down.
	CodeClosed Code = 6
	// CodeBadRequest: the request failed validation.
	CodeBadRequest Code = 7
	// CodeInternal: any other server-side failure; see Detail.
	CodeInternal Code = 8
	// CodeFenced: the receiver refuses because a newer fencing epoch
	// exists (see the fencing-epoch rule above the replication kinds).
	CodeFenced Code = 9
)

// maxCode is the highest defined Code; decode rejects anything past it.
const maxCode = CodeFenced

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeOverload:
		return "overload"
	case CodeDeadline:
		return "deadline"
	case CodeInfeasible:
		return "infeasible"
	case CodeDuplicate:
		return "duplicate"
	case CodeUnknownJob:
		return "unknown-job"
	case CodeClosed:
		return "closed"
	case CodeBadRequest:
		return "bad-request"
	case CodeInternal:
		return "internal"
	case CodeFenced:
		return "fenced"
	default:
		return fmt.Sprintf("Code(%d)", uint8(c))
	}
}

// PlacedJob is one snapshot entry: a job and where it is scheduled.
type PlacedJob struct {
	Job       jobs.Job
	Placement jobs.Placement
}

// Frame is the decoded form of any protocol frame. Kind selects which
// fields are meaningful; the rest stay zero.
type Frame struct {
	Kind Kind

	// ID correlates a request frame with its answer. Client-chosen,
	// unique per connection among in-flight requests.
	ID uint64

	// Version, Tenant: Hello.
	Version int
	Tenant  string

	// Shards, Machines: Welcome (both), Resize and Snapshot (Machines).
	Shards   int
	Machines int

	// DeadlineUS is Submit/Batch's relative deadline in microseconds
	// from server receipt (0 = none).
	DeadlineUS uint64

	// Req: Submit. Batch: Batch.
	Req   jobs.Request
	Batch []jobs.Request

	// Code, Detail: Ack, DrainAck, Err (Detail may be empty).
	Code   Code
	Detail string

	// Codes: BatchAck, one per batched request in order.
	Codes []Code

	// Jobs: Snapshot.
	Jobs []PlacedJob

	// Epoch: Follow, FollowAck, Promote, PromoteAck — the fencing
	// epoch (see the rule above the replication kinds).
	Epoch uint64

	// Seg, Off: SegmentChunk and Tail — the WAL segment number Data
	// belongs to and the byte offset within it where Data starts.
	Seg uint64
	Off int64

	// Data: CheckpointInstall (empty), SegmentChunk, Tail (verbatim
	// segment-file bytes). Decode copies it out of the read buffer, so
	// it stays valid across ReadFrame calls.
	Data []byte
}

// Frame and field limits. A reader rejects any frame past them.
const (
	MaxFrameLen  = 1 << 24 // 16 MiB payload cap
	MaxBatch     = 1 << 14 // requests per Batch frame
	MaxTenantLen = 256
	MaxDetailLen = 1 << 12
	// MaxChunk caps Data in replication frames. Shippers must split
	// larger spans across frames.
	MaxChunk = 1 << 22 // 4 MiB
)

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendPayload encodes f's payload (kind byte + body).
func appendPayload(b []byte, f *Frame) ([]byte, error) {
	b = append(b, byte(f.Kind))
	switch f.Kind {
	case KindHello:
		if len(f.Tenant) == 0 || len(f.Tenant) > MaxTenantLen {
			return b, fmt.Errorf("wire: tenant name length %d (want 1..%d)", len(f.Tenant), MaxTenantLen)
		}
		b = binary.AppendUvarint(b, uint64(f.Version))
		b = appendString(b, f.Tenant)
	case KindWelcome:
		b = binary.AppendUvarint(b, uint64(f.Shards))
		b = binary.AppendUvarint(b, uint64(f.Machines))
	case KindSubmit:
		b = binary.AppendUvarint(b, f.ID)
		b = binary.AppendUvarint(b, f.DeadlineUS)
		b = wal.AppendRequest(b, f.Req)
	case KindBatch:
		if len(f.Batch) == 0 || len(f.Batch) > MaxBatch {
			return b, fmt.Errorf("wire: batch of %d requests (want 1..%d)", len(f.Batch), MaxBatch)
		}
		b = binary.AppendUvarint(b, f.ID)
		b = binary.AppendUvarint(b, f.DeadlineUS)
		b = binary.AppendUvarint(b, uint64(len(f.Batch)))
		for _, r := range f.Batch {
			b = wal.AppendRequest(b, r)
		}
	case KindAck, KindDrainAck:
		b = binary.AppendUvarint(b, f.ID)
		b = append(b, byte(f.Code))
		b = appendString(b, clip(f.Detail, MaxDetailLen))
	case KindBatchAck:
		b = binary.AppendUvarint(b, f.ID)
		b = binary.AppendUvarint(b, uint64(len(f.Codes)))
		for _, c := range f.Codes {
			b = append(b, byte(c))
		}
	case KindErr:
		b = append(b, byte(f.Code))
		b = appendString(b, clip(f.Detail, MaxDetailLen))
	case KindDrain, KindSnapshotReq:
		b = binary.AppendUvarint(b, f.ID)
	case KindResize:
		b = binary.AppendUvarint(b, f.ID)
		b = binary.AppendUvarint(b, uint64(f.Machines))
	case KindFollow:
		b = binary.AppendUvarint(b, uint64(f.Version))
		b = binary.AppendUvarint(b, f.Epoch)
	case KindFollowAck, KindPromoteAck:
		b = binary.AppendUvarint(b, f.Epoch)
	case KindPromote:
		b = binary.AppendUvarint(b, f.Epoch)
		b = appendString(b, clip(f.Detail, MaxDetailLen))
	case KindCheckpointInstall:
		if err := checkRepl(f, false); err != nil {
			return b, err
		}
		b = appendString(b, f.Tenant)
		b = binary.AppendUvarint(b, uint64(len(f.Data)))
		b = append(b, f.Data...)
	case KindSegmentChunk, KindTail:
		if err := checkRepl(f, true); err != nil {
			return b, err
		}
		b = appendString(b, f.Tenant)
		b = binary.AppendUvarint(b, f.Seg)
		b = binary.AppendUvarint(b, uint64(f.Off))
		b = binary.AppendUvarint(b, uint64(len(f.Data)))
		b = append(b, f.Data...)
	case KindInstalled:
		if err := checkRepl(f, false); err != nil {
			return b, err
		}
		b = appendString(b, f.Tenant)
	case KindPing:
		// No body: the frame's arrival is its entire meaning.
	case KindSnapshot:
		b = binary.AppendUvarint(b, f.ID)
		b = binary.AppendUvarint(b, uint64(f.Machines))
		b = binary.AppendUvarint(b, uint64(len(f.Jobs)))
		for _, pj := range f.Jobs {
			b = wal.AppendPlaced(b, pj.Job, pj.Placement)
		}
	default:
		return b, fmt.Errorf("wire: unknown frame kind %d", f.Kind)
	}
	return b, nil
}

// checkRepl validates the shared fields of tenant-scoped replication
// frames before encoding.
func checkRepl(f *Frame, positioned bool) error {
	if len(f.Tenant) == 0 || len(f.Tenant) > MaxTenantLen {
		return fmt.Errorf("wire: tenant name length %d (want 1..%d) in %s frame", len(f.Tenant), MaxTenantLen, f.Kind)
	}
	if len(f.Data) > MaxChunk {
		return fmt.Errorf("wire: %d data bytes exceeds the %d chunk cap in %s frame", len(f.Data), MaxChunk, f.Kind)
	}
	if positioned && f.Off < 0 {
		return fmt.Errorf("wire: negative offset %d in %s frame", f.Off, f.Kind)
	}
	return nil
}

func clip(s string, max int) string {
	if len(s) > max {
		return s[:max]
	}
	return s
}

// DecodePayload decodes one frame payload. Strict: the payload must be
// consumed exactly. It never panics on arbitrary input.
func DecodePayload(p []byte) (Frame, error) {
	r := wal.NewReader(p)
	f := Frame{Kind: Kind(r.Byte())}
	switch f.Kind {
	case KindHello:
		f.Version = int(r.Uvarint())
		f.Tenant = tenant(&r)
	case KindWelcome:
		s, m := r.Uvarint(), r.Uvarint()
		if s > 1<<20 || m > 1<<30 {
			r.Fail(fmt.Errorf("implausible geometry %d/%d", s, m))
		}
		f.Shards, f.Machines = int(s), int(m)
	case KindSubmit:
		f.ID, f.DeadlineUS, f.Req = r.Uvarint(), r.Uvarint(), r.Request()
	case KindBatch:
		f.ID, f.DeadlineUS = r.Uvarint(), r.Uvarint()
		// A request takes at least two bytes: kind and name length.
		n := r.Count(2)
		if n == 0 || n > MaxBatch {
			r.Fail(fmt.Errorf("batch of %d requests (want 1..%d)", n, MaxBatch))
			break
		}
		f.Batch = make([]jobs.Request, n)
		for i := range f.Batch {
			f.Batch[i] = r.Request()
		}
	case KindAck, KindDrainAck:
		f.ID, f.Code, f.Detail = r.Uvarint(), code(&r), r.String(MaxDetailLen)
	case KindBatchAck:
		f.ID = r.Uvarint()
		n := r.Count(1)
		if n > MaxBatch {
			r.Fail(fmt.Errorf("batchack of %d codes", n))
			break
		}
		f.Codes = make([]Code, n)
		for i := range f.Codes {
			f.Codes[i] = code(&r)
		}
	case KindErr:
		f.Code, f.Detail = code(&r), r.String(MaxDetailLen)
	case KindDrain, KindSnapshotReq:
		f.ID = r.Uvarint()
	case KindFollow:
		f.Version, f.Epoch = int(r.Uvarint()), r.Uvarint()
	case KindFollowAck, KindPromoteAck:
		f.Epoch = r.Uvarint()
	case KindPromote:
		f.Epoch, f.Detail = r.Uvarint(), r.String(MaxDetailLen)
	case KindCheckpointInstall:
		f.Tenant, f.Data = tenant(&r), r.Bytes(MaxChunk)
	case KindSegmentChunk, KindTail:
		f.Tenant, f.Seg = tenant(&r), r.Uvarint()
		o := r.Uvarint()
		if o > 1<<62 {
			r.Fail(fmt.Errorf("implausible segment offset %d", o))
		}
		f.Off, f.Data = int64(o), r.Bytes(MaxChunk)
	case KindInstalled:
		f.Tenant = tenant(&r)
	case KindPing:
		// No body.
	case KindResize:
		f.ID = r.Uvarint()
		m := r.Uvarint()
		if m > 1<<30 {
			r.Fail(fmt.Errorf("implausible resize to %d machines", m))
		}
		f.Machines = int(m)
	case KindSnapshot:
		f.ID, f.Machines = r.Uvarint(), int(r.Uvarint())
		n := r.Count(wal.MinPlacedLen)
		// The prealloc is capped: a forged count must not drive a huge
		// allocation before the per-entry decode fails.
		f.Jobs = make([]PlacedJob, 0, min(n, 1<<16))
		for i := 0; i < n && r.Err() == nil; i++ {
			var pj PlacedJob
			pj.Job, pj.Placement = r.Placed()
			f.Jobs = append(f.Jobs, pj)
		}
	default:
		r.Fail(fmt.Errorf("unknown frame kind %d", f.Kind))
	}
	if err := r.Done(); err != nil {
		return Frame{}, fmt.Errorf("wire: %s frame: %w", f.Kind, err)
	}
	return f, nil
}

// tenant reads a tenant name, which must be non-empty.
func tenant(r *wal.Reader) string {
	s := r.String(MaxTenantLen)
	if s == "" {
		r.Fail(errors.New("empty tenant"))
	}
	return s
}

// code reads one outcome byte, refusing codes past maxCode.
func code(r *wal.Reader) Code {
	c := Code(r.Byte())
	if c > maxCode {
		r.Fail(fmt.Errorf("unknown code %d", c))
	}
	return c
}

// AppendFrame appends f's framed encoding to dst.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	start := len(dst)
	dst, err := appendPayload(wal.OpenFrame(dst), f)
	if err != nil {
		return dst[:start], err
	}
	if dst, err = wal.SealFrame(dst, start, MaxFrameLen); err != nil {
		return dst, fmt.Errorf("wire: %w", err)
	}
	return dst, nil
}

// WriteFrame writes f to w as one Write call, reusing buf (returned
// grown) as the encode scratch.
func WriteFrame(w io.Writer, buf []byte, f *Frame) ([]byte, error) {
	b, err := AppendFrame(buf[:0], f)
	if err != nil {
		return buf, err
	}
	_, err = w.Write(b)
	return b, err
}

// ReadFrame reads one frame from r, reusing buf (returned grown) as
// the read scratch. Any violation — short read, oversized length, CRC
// mismatch, undecodable payload — is fatal to the stream: the caller
// must close the connection, since resynchronization is impossible.
//
// It consumes exactly one frame's bytes, so a handshake may read the
// raw connection. A long-lived stream reader should pass a buffered
// io.Reader (bufio.Reader): an unbuffered one costs two reads per
// frame, one for the header and one for the payload.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < wal.FrameHeaderLen {
		buf = make([]byte, wal.FrameHeaderLen, 4096)
	}
	if _, err := io.ReadFull(r, buf[:wal.FrameHeaderLen]); err != nil {
		return Frame{}, buf, err // io.EOF at a frame boundary is a clean close
	}
	hdr := [wal.FrameHeaderLen]byte(buf[:wal.FrameHeaderLen]) // buf may be replaced below
	n, ok := wal.FrameLen(hdr[:], MaxFrameLen)
	if !ok {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d out of range", n)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	if !wal.FrameIntact(hdr[:], payload) {
		return Frame{}, buf, fmt.Errorf("wire: frame CRC mismatch")
	}
	f, err := DecodePayload(payload)
	if err != nil {
		return Frame{}, buf, err
	}
	return f, buf, nil
}

// FrameBuffered reports whether br already holds a whole frame, so that
// ReadFrame on it cannot block. A buffer that ends partway through a
// frame does not count. A header with an out-of-range length does:
// ReadFrame fails on it without reading.
func FrameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < wal.FrameHeaderLen {
		return false
	}
	hdr, _ := br.Peek(wal.FrameHeaderLen) // already buffered: cannot fail
	n, ok := wal.FrameLen(hdr, MaxFrameLen)
	return !ok || br.Buffered() >= wal.FrameHeaderLen+n
}
