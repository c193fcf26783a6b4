// Fuzz targets for the durability codec: arbitrary bytes must never
// panic, corrupt input must be rejected (CRC or structural checks), and
// whatever decodes must re-encode to something that decodes back to the
// same value. The seed corpus under testdata/fuzz is committed; CI runs
// FuzzWALDecode in the fuzz smoke alongside FuzzApplyBatch.
package wal

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/jobs"
)

// fuzzCheckpoints returns the two checkpoint images the seeds are
// built from: one empty shard, and two jobs placed across three shards.
func fuzzCheckpoints() (empty, twoJobs *Checkpoint) {
	empty = &Checkpoint{ShardMachines: []int{4}, Assignment: jobs.Assignment{}}
	twoJobs = &Checkpoint{
		ShardMachines: []int{2, 2, 4},
		Jobs: []jobs.Job{
			{Name: "a", Window: jobs.Window{Start: 0, End: 64}},
			{Name: "b", Window: jobs.Window{Start: -128, End: 128}},
		},
		Assignment: jobs.Assignment{
			"a": {Machine: 0, Slot: 5},
			"b": {Machine: 7, Slot: -3},
		},
	}
	return empty, twoJobs
}

// fuzzSeedFrames renders a few valid logs (frame sequences, no segment
// header) to seed the corpus alongside the committed testdata files:
// every record kind, and checkpoint records both empty and placing jobs
// across several shards, each heading its log as Log.Checkpoint writes
// them.
func fuzzSeedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	empty, twoJobs := fuzzCheckpoints()
	var out [][]byte
	var buf []byte
	var err error
	for _, recs := range [][]Record{
		{RequestRecord(jobs.InsertReq("a", 0, 64))},
		{RequestRecord(jobs.DeleteReq("a")), ResizeRecord(-1, 0, 8)},
		sampleRecords(),
		{{Kind: KindCheckpoint, Checkpoint: empty}},
		append([]Record{{Kind: KindCheckpoint, Checkpoint: twoJobs}}, sampleRecords()...),
	} {
		buf = nil
		for _, r := range recs {
			buf, err = AppendFrame(buf, r)
			if err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, buf)
	}
	return out
}

// FuzzWALDecode drives ScanRecords over arbitrary bytes: no panics, the
// valid prefix never exceeds the input, and re-encoding the decoded
// records yields a log that scans back to the identical record list
// with zero truncation.
func FuzzWALDecode(f *testing.F) {
	for _, seed := range fuzzSeedFrames(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)-3]) // torn tail
		mid := append([]byte(nil), seed...)
		mid[len(mid)/2] ^= 0x40 // corrupt middle
		f.Add(mid)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := ScanRecords(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of range [0, %d]", valid, len(data))
		}
		var enc []byte
		var err error
		for i, r := range recs {
			enc, err = AppendFrame(enc, r)
			if err != nil {
				t.Fatalf("record %d decoded but does not re-encode: %v", i, err)
			}
		}
		recs2, valid2 := ScanRecords(enc)
		if valid2 != len(enc) {
			t.Fatalf("re-encoded log has %d invalid byte(s)", len(enc)-valid2)
		}
		if len(recs) != len(recs2) || (len(recs) > 0 && !reflect.DeepEqual(recs, recs2)) {
			t.Fatalf("roundtrip diverged:\nfirst  %+v\nsecond %+v", recs, recs2)
		}
	})
}

// FuzzCheckpointDecode drives the decoder over one framed checkpoint
// record, the head of every segment Log.Checkpoint writes: no panics,
// corrupt CRCs rejected, and any image that decodes re-encodes to a
// frame that decodes back to the same image.
func FuzzCheckpointDecode(f *testing.F) {
	empty, twoJobs := fuzzCheckpoints()
	for _, ck := range []*Checkpoint{empty, twoJobs} {
		data, err := AppendFrame(nil, Record{Kind: KindCheckpoint, Checkpoint: ck})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		bad := append([]byte(nil), data...)
		bad[5] ^= 1 // CRC corruption
		f.Add(bad)
	}
	f.Add([]byte{byte(KindCheckpoint)})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := ScanRecords(data)
		if len(recs) != 1 || valid != len(data) || recs[0].Kind != KindCheckpoint {
			return
		}
		ck := recs[0].Checkpoint
		bad := append([]byte(nil), data...)
		bad[5] ^= 1 // CRC corruption
		if recs, _ := ScanRecords(bad); len(recs) != 0 {
			t.Fatal("checkpoint frame with a corrupt CRC decoded")
		}
		enc, err := AppendFrame(nil, Record{Kind: KindCheckpoint, Checkpoint: ck})
		if err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		// Byte-identity is not asserted here (varint decoding accepts
		// non-minimal encodings a mutator could forge a CRC for); the
		// golden format test pins byte-identity for encoder output.
		recs2, valid2 := ScanRecords(enc)
		if len(recs2) != 1 || valid2 != len(enc) {
			t.Fatal("re-encoded checkpoint does not decode")
		}
		ck2 := recs2[0].Checkpoint
		if !reflect.DeepEqual(ck.ShardMachines, ck2.ShardMachines) ||
			!reflect.DeepEqual(ck.Jobs, ck2.Jobs) || !reflect.DeepEqual(ck.Assignment, ck2.Assignment) {
			t.Fatal("checkpoint roundtrip diverged")
		}
	})
}
