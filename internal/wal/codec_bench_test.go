package wal

import (
	"fmt"
	"testing"

	"repro/internal/jobs"
)

// BenchmarkScanRecords measures recovery's inner loop: scanning and
// decoding a segment of 256 records, a mix of single requests and
// 16-request batches like the ones the sharded and served paths log.
func BenchmarkScanRecords(b *testing.B) {
	var data []byte
	var err error
	for i := 0; i < 256; i++ {
		rec := RequestRecord(jobs.InsertReq(fmt.Sprintf("job-%d", i), int64(i), int64(i)+4096))
		if i%4 == 0 {
			batch := make([]jobs.Request, 16)
			for k := range batch {
				batch[k] = jobs.InsertReq(fmt.Sprintf("job-%d-%d", i, k), 0, 1<<20)
			}
			rec = BatchRecord(batch)
		}
		if data, err = AppendFrame(data, rec); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, valid := ScanRecords(data); valid != len(data) {
			b.Fatalf("scanned %d of %d bytes", valid, len(data))
		}
	}
}

// BenchmarkDecodeCheckpoint measures scanning a checkpoint record of
// 1024 jobs over four shards: the frame check and the image decode
// recovery runs before it replays the records after it.
func BenchmarkDecodeCheckpoint(b *testing.B) {
	ck := &Checkpoint{ShardMachines: []int{4, 4, 4, 4}, Assignment: jobs.Assignment{}}
	for i := 0; i < 1024; i++ {
		j := jobs.Job{Name: fmt.Sprintf("job-%04d", i), Window: jobs.Window{Start: int64(i), End: int64(i) + 4096}}
		ck.Jobs = append(ck.Jobs, j)
		ck.Assignment[j.Name] = jobs.Placement{Machine: i % 16, Slot: int64(i)}
	}
	data, err := AppendFrame(nil, Record{Kind: KindCheckpoint, Checkpoint: ck})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, valid := ScanRecords(data); valid != len(data) {
			b.Fatalf("scanned %d of %d bytes", valid, len(data))
		}
	}
}
