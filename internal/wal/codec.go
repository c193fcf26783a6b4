package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/jobs"
)

// The codec shared by the log and the wire protocol (internal/wire):
// one frame envelope, one bounded payload Reader, and the request and
// placed-job encodings both formats carry.

// FrameHeaderLen is the size of the frame envelope's header: the u32
// payload length and the u32 CRC-32C of the payload.
const FrameHeaderLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// OpenFrame reserves an envelope header at the end of dst. The caller
// appends the payload after it and closes the frame with SealFrame.
func OpenFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// SealFrame fills in the header of the frame opened at dst[start:]. A
// payload longer than maxLen is refused and the frame dropped.
func SealFrame(dst []byte, start, maxLen int) ([]byte, error) {
	payload := dst[start+FrameHeaderLen:]
	if len(payload) > maxLen {
		return dst[:start], fmt.Errorf("frame payload of %d bytes exceeds the %d cap", len(payload), maxLen)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// FrameLen returns the payload length an envelope header declares and
// whether it is in 1..maxLen.
func FrameLen(hdr []byte, maxLen int) (int, bool) {
	n := binary.LittleEndian.Uint32(hdr)
	return int(n), n != 0 && uint64(n) <= uint64(maxLen)
}

// FrameIntact reports whether payload matches the CRC in its header.
func FrameIntact(hdr, payload []byte) bool {
	return crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(hdr[4:])
}

var (
	errTruncated = errors.New("truncated payload")
	errVarint    = errors.New("bad varint")
)

// Reader decodes a payload field by field. Every read is bounded by the
// bytes left, so arbitrary input never panics and a forged length never
// drives a large allocation. The first failure sticks: later reads
// return zero values, and Done reports the failure.
type Reader struct {
	p   []byte
	off int // p[off:] is unread; advancing an int needs no GC write barrier
	err error
}

// NewReader returns a Reader over p.
func NewReader(p []byte) Reader { return Reader{p: p} }

// Fail records err as the Reader's failure unless one is already
// recorded, and stops every later read.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.p, r.off = nil, 0
}

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error if bytes are left over:
// a payload must be consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.p) {
		return fmt.Errorf("%d trailing byte(s)", len(r.p)-r.off)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.p) {
		r.Fail(errTruncated)
		return 0
	}
	r.off++
	return r.p[r.off-1]
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.p) && r.p[r.off] < 0x80 {
		r.off++
		return uint64(r.p[r.off-1])
	}
	v, w := binary.Uvarint(r.p[r.off:])
	if w <= 0 {
		r.Fail(errVarint)
		return 0
	}
	r.off += w
	return v
}

// Varint reads a signed (zigzag) varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads an element count, refusing one the bytes left cannot hold
// at each bytes per element.
func (r *Reader) Count(each int) int {
	n := r.Uvarint()
	if n > uint64((len(r.p)-r.off)/each) {
		r.Fail(fmt.Errorf("count %d exceeds the payload", n))
		return 0
	}
	return int(n)
}

// span reads a length-prefixed byte span of at most max bytes, aliasing
// the payload.
func (r *Reader) span(max int) []byte {
	n := r.Uvarint()
	if n > uint64(max) || n > uint64(len(r.p)-r.off) {
		r.Fail(fmt.Errorf("bad length %d", n))
		return nil
	}
	r.off += int(n)
	return r.p[r.off-int(n) : r.off]
}

// String reads a length-prefixed string of at most max bytes.
func (r *Reader) String(max int) string { return string(r.span(max)) }

// Bytes reads a length-prefixed byte string of at most max bytes into a
// fresh slice (nil when empty), so it outlives the payload.
func (r *Reader) Bytes(max int) []byte { return append([]byte(nil), r.span(max)...) }

// AppendRequest encodes one request: kind byte, name, and (for inserts)
// the window bounds as signed varints. The wire protocol frames
// requests with exactly this encoding, so the WAL's on-disk request
// format is the network format.
func AppendRequest(b []byte, r jobs.Request) []byte {
	b = append(b, byte(r.Kind))
	b = binary.AppendUvarint(b, uint64(len(r.Name)))
	b = append(b, r.Name...)
	if r.Kind == jobs.Insert {
		b = binary.AppendVarint(b, r.Window.Start)
		b = binary.AppendVarint(b, r.Window.End)
	}
	return b
}

// Request reads a request written by AppendRequest.
func (r *Reader) Request() jobs.Request {
	req := jobs.Request{Kind: jobs.RequestKind(r.Byte())}
	switch req.Kind {
	case jobs.Insert:
		req.Name = r.String(maxNameLen)
		req.Window = jobs.Window{Start: r.Varint(), End: r.Varint()}
	case jobs.Delete:
		req.Name = r.String(maxNameLen)
	default:
		r.Fail(fmt.Errorf("unknown request kind %d", req.Kind))
	}
	return req
}

// AppendPlaced encodes one scheduled job: name, window bounds, machine
// and slot. Checkpoint records and wire snapshots share it.
func AppendPlaced(b []byte, j jobs.Job, pl jobs.Placement) []byte {
	b = binary.AppendUvarint(b, uint64(len(j.Name)))
	b = append(b, j.Name...)
	b = binary.AppendVarint(b, j.Window.Start)
	b = binary.AppendVarint(b, j.Window.End)
	b = binary.AppendVarint(b, int64(pl.Machine))
	return binary.AppendVarint(b, pl.Slot)
}

// MinPlacedLen is the fewest bytes AppendPlaced writes: a length and
// four one-byte varints. It bounds a placed-job count by the bytes left.
const MinPlacedLen = 5

// Placed reads a scheduled job written by AppendPlaced.
func (r *Reader) Placed() (jobs.Job, jobs.Placement) {
	j := jobs.Job{Name: r.String(maxNameLen), Window: jobs.Window{Start: r.Varint(), End: r.Varint()}}
	return j, jobs.Placement{Machine: int(r.Varint()), Slot: r.Varint()}
}
