// The fuzz target for the frame codec: arbitrary payloads must never
// panic, and whatever decodes must re-encode to a frame that decodes
// back to the same value. The seed corpus under testdata/fuzz holds one
// frame per kind; CI runs this target in the fuzz smoke.
package wire

import (
	"reflect"
	"testing"

	"repro/internal/wal"
)

// FuzzFrameDecode drives DecodePayload over arbitrary payloads. Byte
// identity of the re-encoding is not asserted: varint decoding accepts
// non-minimal encodings, which the encoder never writes.
func FuzzFrameDecode(f *testing.F) {
	for _, fr := range sampleFrames() {
		enc, err := AppendFrame(nil, &fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[wal.FrameHeaderLen:])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		fr, err := DecodePayload(p)
		if err != nil {
			return
		}
		enc, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("decoded %s frame does not re-encode: %v", fr.Kind, err)
		}
		again, err := DecodePayload(enc[wal.FrameHeaderLen:])
		if err != nil {
			t.Fatalf("re-encoded %s frame does not decode: %v", fr.Kind, err)
		}
		if !reflect.DeepEqual(fr, again) {
			t.Fatalf("roundtrip diverged:\nfirst  %+v\nsecond %+v", fr, again)
		}
	})
}
