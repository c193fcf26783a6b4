// Package wal implements the durability subsystem of the sharded
// front-end: a length-prefixed, CRC-framed binary write-ahead log of
// admitted requests and of the front-end's point-in-time snapshots
// (checkpoint records).
//
// # Log format
//
// A log directory holds numbered segment files ("00000001.wal",
// "00000002.wal", ...) and nothing else. Every segment starts with a
// 16-byte header (magic, format version, segment number) followed by a
// sequence of framed records:
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// The payload's first byte is the record kind — a single request, a
// request batch (one ApplyBatch call, group-committed as one frame), a
// machine-pool resize, or a checkpoint — followed by the kind-specific
// body. All integers are little-endian; variable-length fields use Go's
// varint encodings.
//
// Recovery scans each segment's frames in order. The first frame that
// does not check out — short header, length past the end of the file,
// CRC mismatch, undecodable payload — marks a torn tail: everything
// before it is replayed, everything from it on is discarded, and Open
// truncates the file at that boundary so the log is clean for new
// appends. A torn tail is tolerated only in the final segment; an
// invalid frame in an earlier segment is reported as corruption.
//
// # Checkpoints
//
// A checkpoint is a record: Log.Checkpoint closes the current segment
// and writes the image (the shard partition and every job with its
// placement, in name order) as the first record of the next one, synced,
// before it prunes the older segments. Recovery starts at the newest
// segment whose first record is an intact checkpoint (ReplaySegments):
// it restores that image and replays the records after it. Segments
// before it are neither replayed nor required to be intact; with no
// checkpoint, replay starts at segment 1. A crash inside the checkpoint
// write leaves the older segment in place, so recovery replays it as if
// no checkpoint had begun. The image is bounded by the record cap
// (64 MiB). Format version 2 introduced checkpoint records; a segment
// of any other version is refused, never taken for a torn header.
//
// # Group commit
//
// The log is a lock, not a goroutine. Enqueue encodes a record into the
// pending group and returns a ticket; Wait(ticket) returns once the
// record is written. The first waiter that finds no write in progress
// becomes the leader and writes every pending record in one write (and,
// with Options.Fsync, one fsync), so records enqueued while a write is
// in flight coalesce into the next one and N concurrent appenders cost
// one write per group rather than one per record. A Wait returns only
// after its group is written, which is how the sharded front-end defers
// request acknowledgements until durability.
//
// # Codec
//
// codec.go holds the one codec the log and the wire protocol
// (internal/wire) share: the frame envelope (OpenFrame, SealFrame,
// FrameLen, FrameIntact), the bounded sticky-error payload Reader, and
// the request and placed-job encodings (AppendRequest, AppendPlaced and
// their Reader methods).
package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/jobs"
)

// Kind identifies a record's payload type.
type Kind uint8

const (
	// KindRequest is a single admitted insert/delete request.
	KindRequest Kind = 1
	// KindBatch is one ApplyBatch call: its requests in batch order.
	KindBatch Kind = 2
	// KindResize is a machine-pool resize (whole pool or one shard).
	KindResize Kind = 3
	// KindCheckpoint is a point-in-time image of the front-end. It only
	// ever opens a segment (Log.Checkpoint), and recovery starts at the
	// newest one.
	KindCheckpoint Kind = 4
)

// Record is one log entry. Exactly one of the kind-specific fields is
// meaningful, selected by Kind.
type Record struct {
	Kind       Kind
	Req        jobs.Request   // KindRequest
	Batch      []jobs.Request // KindBatch
	Resize     ResizeSpec     // KindResize
	Checkpoint *Checkpoint    // KindCheckpoint
}

// ResizeSpec mirrors the front-end's resize request: Shard >= 0 resizes
// one shard by Delta machines; Shard == -1 re-partitions the whole pool
// to Machines.
type ResizeSpec struct {
	Shard    int
	Delta    int
	Machines int
}

// RequestRecord frames one request.
func RequestRecord(r jobs.Request) Record { return Record{Kind: KindRequest, Req: r} }

// BatchRecord frames one ApplyBatch call. The slice is not retained
// past the append that encodes it.
func BatchRecord(reqs []jobs.Request) Record { return Record{Kind: KindBatch, Batch: reqs} }

// ResizeRecord frames a pool resize.
func ResizeRecord(shard, delta, machines int) Record {
	return Record{Kind: KindResize, Resize: ResizeSpec{Shard: shard, Delta: delta, Machines: machines}}
}

// Requests returns how many individual requests the record carries.
func (r Record) Requests() int {
	switch r.Kind {
	case KindRequest:
		return 1
	case KindBatch:
		return len(r.Batch)
	default:
		return 0
	}
}

// Payload limits. They exist so a corrupt length or count field is
// rejected before it can drive a huge allocation.
const (
	maxRecordLen = 1 << 26 // 64 MiB per framed payload
	maxNameLen   = 1 << 20 // per job name
)

// appendPayload encodes a record's payload (kind byte + body).
func appendPayload(b []byte, rec Record) ([]byte, error) {
	switch rec.Kind {
	case KindRequest:
		b = append(b, byte(KindRequest))
		b = AppendRequest(b, rec.Req)
	case KindBatch:
		b = append(b, byte(KindBatch))
		b = binary.AppendUvarint(b, uint64(len(rec.Batch)))
		for _, r := range rec.Batch {
			b = AppendRequest(b, r)
		}
	case KindResize:
		b = append(b, byte(KindResize))
		b = binary.AppendVarint(b, int64(rec.Resize.Shard))
		b = binary.AppendVarint(b, int64(rec.Resize.Delta))
		b = binary.AppendVarint(b, int64(rec.Resize.Machines))
	case KindCheckpoint:
		return appendCheckpoint(append(b, byte(KindCheckpoint)), rec.Checkpoint)
	default:
		return b, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	return b, nil
}

// DecodePayload decodes one record payload. It is strict: the payload
// must be consumed exactly, so a frame with trailing garbage is invalid.
// It never panics on arbitrary input.
func DecodePayload(p []byte) (Record, error) {
	r := NewReader(p)
	rec := Record{Kind: Kind(r.Byte())}
	switch rec.Kind {
	case KindRequest:
		rec.Req = r.Request()
	case KindBatch:
		// A request takes at least two bytes: kind and name length.
		if n := r.Count(2); n > 0 {
			rec.Batch = make([]jobs.Request, n)
			for i := range rec.Batch {
				rec.Batch[i] = r.Request()
			}
		}
	case KindResize:
		rec.Resize = ResizeSpec{Shard: int(r.Varint()), Delta: int(r.Varint()), Machines: int(r.Varint())}
	case KindCheckpoint:
		rec.Checkpoint = r.checkpoint()
	default:
		r.Fail(fmt.Errorf("unknown record kind %d", rec.Kind))
	}
	if err := r.Done(); err != nil {
		return Record{}, fmt.Errorf("wal: record: %w", err)
	}
	return rec, nil
}

// AppendFrame appends the framed encoding of rec to dst.
func AppendFrame(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	dst, err := appendPayload(OpenFrame(dst), rec)
	if err != nil {
		return dst[:start], err
	}
	if dst, err = SealFrame(dst, start, maxRecordLen); err != nil {
		return dst, fmt.Errorf("wal: %w", err)
	}
	return dst, nil
}

// ScanRecords walks the framed records in data, stopping at the first
// frame that fails any check (short header, length out of bounds, CRC
// mismatch, undecodable payload). It returns the decoded records and
// the byte offset of the first invalid frame — the clean-truncation
// point. valid == len(data) means every byte checked out. ScanRecords
// never panics on arbitrary input.
func ScanRecords(data []byte) (recs []Record, valid int) {
	for off := 0; ; {
		if len(data)-off < FrameHeaderLen {
			return recs, off
		}
		hdr := data[off : off+FrameHeaderLen]
		n, ok := FrameLen(hdr, min(maxRecordLen, len(data)-off-FrameHeaderLen))
		if !ok {
			return recs, off
		}
		payload := data[off+FrameHeaderLen : off+FrameHeaderLen+n]
		if !FrameIntact(hdr, payload) {
			return recs, off
		}
		rec, err := DecodePayload(payload)
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += FrameHeaderLen + n
	}
}
