package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/wal"
)

// sampleFrames covers every kind with every meaningful field set.
func sampleFrames() []Frame {
	return []Frame{
		{Kind: KindHello, Version: Version, Tenant: "acme"},
		{Kind: KindWelcome, Shards: 4, Machines: 16},
		{Kind: KindSubmit, ID: 7, DeadlineUS: 2500, Req: jobs.InsertReq("job-a", -64, 64)},
		{Kind: KindSubmit, ID: 8, Req: jobs.DeleteReq("job-a")},
		{Kind: KindBatch, ID: 9, DeadlineUS: 10_000, Batch: []jobs.Request{
			jobs.InsertReq("b1", 0, 128),
			jobs.DeleteReq("b2"),
			jobs.InsertReq("ω-unicode", 256, 512),
		}},
		{Kind: KindAck, ID: 7, Code: CodeOK},
		{Kind: KindAck, ID: 8, Code: CodeOverload, Detail: "inflight budget exhausted"},
		{Kind: KindBatchAck, ID: 9, Codes: []Code{CodeOK, CodeUnknownJob, CodeDeadline}},
		{Kind: KindErr, Code: CodeBadRequest, Detail: "unsupported protocol version 9"},
		{Kind: KindDrain, ID: 10},
		{Kind: KindDrainAck, ID: 10, Code: CodeOK},
		{Kind: KindResize, ID: 11, Machines: 32},
		{Kind: KindSnapshotReq, ID: 12},
		{Kind: KindSnapshot, ID: 12, Machines: 16, Jobs: []PlacedJob{
			{Job: jobs.Job{Name: "job-a", Window: jobs.Window{Start: -64, End: 64}},
				Placement: jobs.Placement{Machine: 3, Slot: -2}},
			{Job: jobs.Job{Name: "b1", Window: jobs.Window{Start: 0, End: 128}},
				Placement: jobs.Placement{Machine: 0, Slot: 17}},
		}},
		{Kind: KindFollow, Version: Version, Epoch: 4},
		{Kind: KindFollowAck, Epoch: 4},
		{Kind: KindCheckpointInstall, Tenant: "acme", Data: []byte("RCKP-image-bytes")},
		{Kind: KindCheckpointInstall, Tenant: "fresh"}, // empty Data = no checkpoint yet
		{Kind: KindSegmentChunk, Tenant: "acme", Seg: 9, Off: 1 << 20, Data: []byte{0xde, 0xad, 0xbe, 0xef}},
		{Kind: KindTail, Tenant: "acme", Seg: 9, Off: 16, Data: []byte("one-group-commit")},
		{Kind: KindInstalled, Tenant: "acme"},
		{Kind: KindPromote, Epoch: 5, Detail: "primary unreachable for 2s"},
		{Kind: KindPromoteAck, Epoch: 5},
		{Kind: KindPing},
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var stream bytes.Buffer
	var buf []byte
	var err error
	for _, f := range sampleFrames() {
		if buf, err = WriteFrame(&stream, buf, &f); err != nil {
			t.Fatalf("write %s: %v", f.Kind, err)
		}
	}
	for _, want := range sampleFrames() {
		var got Frame
		got, buf, err = ReadFrame(&stream, buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("roundtrip %s:\n got %+v\nwant %+v", want.Kind, got, want)
		}
	}
	if _, _, err = ReadFrame(&stream, buf); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

// TestFrameCorruption: every single-bit flip in an encoded frame is
// rejected (CRC or a stricter check), never silently decoded wrong and
// never a panic.
func TestFrameCorruption(t *testing.T) {
	for _, f := range sampleFrames() {
		enc, err := AppendFrame(nil, &f)
		if err != nil {
			t.Fatal(err)
		}
		for bit := 0; bit < len(enc)*8; bit++ {
			mut := bytes.Clone(enc)
			mut[bit/8] ^= 1 << (bit % 8)
			got, _, err := ReadFrame(bytes.NewReader(mut), nil)
			if err == nil && reflect.DeepEqual(got, f) {
				continue // flip in a dont-care encoding bit would be a decode bug; DeepEqual proves it wasn't
			}
			if err == nil {
				t.Fatalf("%s frame with bit %d flipped decoded silently to %+v", f.Kind, bit, got)
			}
		}
	}
}

// TestFrameTruncation: every proper prefix of a frame fails to read,
// with io.EOF only at the zero-byte boundary (a clean close).
func TestFrameTruncation(t *testing.T) {
	f := Frame{Kind: KindSubmit, ID: 3, Req: jobs.InsertReq("trunc", 0, 64)}
	enc, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(enc); n++ {
		_, _, err := ReadFrame(bytes.NewReader(enc[:n]), nil)
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(enc))
		}
		if n == 0 && err != io.EOF {
			t.Fatalf("empty stream read = %v, want io.EOF", err)
		}
	}
}

// TestFrameBuffered: only a whole frame in the buffer counts, so every
// proper prefix reads false; a header whose length is out of range
// counts, because ReadFrame fails on it without reading further.
func TestFrameBuffered(t *testing.T) {
	f := Frame{Kind: KindSubmit, ID: 3, Req: jobs.InsertReq("whole", 0, 64)}
	enc, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	bad := binary.LittleEndian.AppendUint32(nil, MaxFrameLen+1)
	bad = append(bad, 0, 0, 0, 0)
	for _, c := range []struct {
		name string
		b    []byte
		want bool
	}{
		{"empty", nil, false},
		{"partial header", enc[:wal.FrameHeaderLen-1], false},
		{"header only", enc[:wal.FrameHeaderLen], false},
		{"partial payload", enc[:len(enc)-1], false},
		{"whole", enc, true},
		{"whole and a partial header", append(enc[:len(enc):len(enc)], 1), true},
		{"length out of range", bad, true},
	} {
		br := bufio.NewReader(bytes.NewReader(c.b))
		br.Peek(len(c.b)) // fill
		if got := FrameBuffered(br); got != c.want {
			t.Errorf("%s: FrameBuffered = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct {
		name string
		f    Frame
	}{
		{"empty tenant", Frame{Kind: KindHello, Version: Version}},
		{"oversized tenant", Frame{Kind: KindHello, Version: Version, Tenant: strings.Repeat("x", MaxTenantLen+1)}},
		{"empty batch", Frame{Kind: KindBatch, ID: 1}},
		{"unknown kind", Frame{Kind: Kind(200)}},
		{"tail without tenant", Frame{Kind: KindTail, Seg: 1, Data: []byte("x")}},
		{"chunk without tenant", Frame{Kind: KindSegmentChunk, Seg: 1, Data: []byte("x")}},
		{"install without tenant", Frame{Kind: KindCheckpointInstall}},
		{"negative offset", Frame{Kind: KindTail, Tenant: "t", Seg: 1, Off: -1, Data: []byte("x")}},
		{"oversized chunk", Frame{Kind: KindSegmentChunk, Tenant: "t", Seg: 1, Data: make([]byte, MaxChunk+1)}},
	}
	for _, tc := range cases {
		if _, err := AppendFrame(nil, &tc.f); err == nil {
			t.Errorf("%s: encoded without error", tc.name)
		}
	}
	// An unknown code byte on the wire is rejected at decode.
	ack := Frame{Kind: KindAck, ID: 1, Code: CodeOK}
	enc, err := AppendFrame(nil, &ack)
	if err != nil {
		t.Fatal(err)
	}
	// Find and corrupt the code byte (kind, id varint, code): payload
	// starts at 8; kind at 8, id at 9 (one byte for 1), code at 10.
	if enc[10] != byte(CodeOK) {
		t.Fatalf("test layout assumption broken: byte 10 = %d", enc[10])
	}
	// Re-frame with a bogus code so the CRC is valid.
	bad := Frame{Kind: KindAck, ID: 1, Code: Code(99)}
	enc, err = AppendFrame(nil, &bad)
	if err != nil {
		t.Fatalf("encoding bogus code should succeed (server bug tolerance): %v", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(enc), nil); err == nil {
		t.Fatal("unknown code byte decoded silently")
	}
}

// TestDetailClipped: an oversized detail string is clipped at encode
// rather than poisoning the frame.
func TestDetailClipped(t *testing.T) {
	f := Frame{Kind: KindErr, Code: CodeInternal, Detail: strings.Repeat("d", MaxDetailLen*2)}
	enc, err := AppendFrame(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFrame(bytes.NewReader(enc), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Detail) != MaxDetailLen {
		t.Fatalf("detail length %d, want clipped to %d", len(got.Detail), MaxDetailLen)
	}
}

func BenchmarkSubmitRoundtrip(b *testing.B) {
	f := Frame{Kind: KindSubmit, ID: 42, DeadlineUS: 1000, Req: jobs.InsertReq("bench-job", 0, 4096)}
	var enc []byte
	var err error
	if enc, err = AppendFrame(enc, &f); err != nil {
		b.Fatal(err)
	}
	r := bytes.NewReader(enc)
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(enc)
		if _, buf, err = ReadFrame(r, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSubmit measures decoding one Submit payload, the work
// the server does per served request before admission.
func BenchmarkDecodeSubmit(b *testing.B) {
	f := Frame{Kind: KindSubmit, ID: 42, DeadlineUS: 1000, Req: jobs.InsertReq("bench-job", 0, 4096)}
	enc, err := AppendFrame(nil, &f)
	if err != nil {
		b.Fatal(err)
	}
	p := enc[wal.FrameHeaderLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodePayload(p); err != nil {
			b.Fatal(err)
		}
	}
}
