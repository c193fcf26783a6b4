package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/jobs"
)

func sampleRecords() []Record {
	return []Record{
		RequestRecord(jobs.InsertReq("alpha", 0, 64)),
		RequestRecord(jobs.DeleteReq("alpha")),
		BatchRecord([]jobs.Request{
			jobs.InsertReq("b1", 128, 256),
			jobs.DeleteReq("b1"),
			jobs.InsertReq("b2", -32, 32),
		}),
		ResizeRecord(-1, 0, 16),
		ResizeRecord(2, -1, 0),
		RequestRecord(jobs.InsertReq("ω-unicode", 512, 1024)),
	}
}

// TestLogRoundtrip: append, close, reopen — every record comes back in
// order and the directory is no longer Empty.
func TestLogRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty {
		t.Fatalf("fresh dir not Empty: %+v", rec)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Empty || rec2.TruncatedBytes != 0 {
		t.Fatalf("reopen: Empty=%v truncated=%d", rec2.Empty, rec2.TruncatedBytes)
	}
	if !reflect.DeepEqual(rec2.Records, want) {
		t.Fatalf("records diverged:\ngot  %+v\nwant %+v", rec2.Records, want)
	}
	if got, wantN := rec2.Requests(), 6; got != wantN {
		t.Fatalf("Requests() = %d, want %d", got, wantN)
	}
}

// TestTornTailTruncation: for every possible truncation point of the
// log file, reopening recovers exactly the records whose frames fully
// survived and physically truncates the tail.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := segPath(dir, 1)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries: prefix lengths at which exactly k records survive.
	bounds := []int{segHeaderLen}
	{
		recs, _ := ScanRecords(full[segHeaderLen:])
		if len(recs) != len(want) {
			t.Fatalf("full file scans %d records, want %d", len(recs), len(want))
		}
	}
	off := segHeaderLen
	for range want {
		n := int(uint32(full[off]) | uint32(full[off+1])<<8 | uint32(full[off+2])<<16 | uint32(full[off+3])<<24)
		off += FrameHeaderLen + n
		bounds = append(bounds, off)
	}

	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(segPath(sub, 1), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, rec, err := Open(sub, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// How many records should survive this cut?
		survive := 0
		for k := 1; k < len(bounds); k++ {
			if cut >= bounds[k] {
				survive = k
			}
		}
		if cut < segHeaderLen {
			survive = 0
		}
		if len(rec.Records) != survive {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(rec.Records), survive)
		}
		if !reflect.DeepEqual(rec.Records, append([]Record(nil), want[:survive]...)) &&
			!(survive == 0 && rec.Records == nil) {
			t.Fatalf("cut %d: wrong records", cut)
		}
		// The reopened log must have truncated the torn bytes.
		st, err := os.Stat(segPath(sub, 1))
		if err != nil {
			t.Fatal(err)
		}
		if cut >= segHeaderLen && st.Size() != int64(bounds[survive]) {
			t.Fatalf("cut %d: file is %d bytes after reopen, want %d", cut, st.Size(), bounds[survive])
		}
	}
}

// TestCorruptMiddleBitFlip: flipping a byte inside an early record
// truncates from that record on (first-invalid-frame = tail rule).
func TestCorruptMiddleBitFlip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := segPath(dir, 1)
	data, _ := os.ReadFile(path)
	data[segHeaderLen+FrameHeaderLen+2] ^= 0xff // inside record 0's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records after corrupting the first, want 0", len(rec.Records))
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("no truncation reported for a corrupt record")
	}
}

// TestRotateAndCheckpoint: rotation moves appends to the next segment;
// a checkpoint at the rotation point prunes the old segment, and
// recovery replays only the tail.
func TestRotateAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("old", 0, 64))); err != nil {
		t.Fatal(err)
	}
	seg, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if seg != 2 {
		t.Fatalf("Rotate -> segment %d, want 2", seg)
	}
	ck := Checkpoint{
		StartSeg:      seg,
		ShardMachines: []int{2, 3},
		Jobs:          []jobs.Job{{Name: "old", Window: jobs.Window{Start: 0, End: 64}}},
		Assignment:    jobs.Assignment{"old": {Machine: 1, Slot: 7}},
	}
	if err := l.WriteCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not pruned after checkpoint: %v", err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("new", 64, 128))); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil {
		t.Fatal("checkpoint not recovered")
	}
	if !reflect.DeepEqual(rec.Checkpoint.ShardMachines, []int{2, 3}) {
		t.Fatalf("shard machines %v", rec.Checkpoint.ShardMachines)
	}
	if got := rec.Checkpoint.Machines(); got != 5 {
		t.Fatalf("Machines() = %d, want 5", got)
	}
	if len(rec.Records) != 1 || rec.Records[0].Req.Name != "new" {
		t.Fatalf("tail records = %+v, want just the post-checkpoint insert", rec.Records)
	}
}

// TestCheckpointCodecCanonical: encode/decode roundtrips, and equal
// images encode to identical bytes regardless of input job order.
func TestCheckpointCodecCanonical(t *testing.T) {
	asn := jobs.Assignment{
		"a": {Machine: 0, Slot: 3},
		"b": {Machine: 4, Slot: -9},
		"c": {Machine: 2, Slot: 1 << 40},
	}
	js := []jobs.Job{
		{Name: "b", Window: jobs.Window{Start: -8, End: 8}},
		{Name: "a", Window: jobs.Window{Start: 0, End: 64}},
		{Name: "c", Window: jobs.Window{Start: 1 << 30, End: 1<<30 + 4096}},
	}
	ck := Checkpoint{StartSeg: 7, ShardMachines: []int{1, 4}, Jobs: js, Assignment: asn}
	data, err := EncodeCheckpoint(&ck)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.StartSeg != 7 || !reflect.DeepEqual(back.ShardMachines, []int{1, 4}) {
		t.Fatalf("header fields diverged: %+v", back)
	}
	if len(back.Jobs) != 3 || back.Jobs[0].Name != "a" || back.Jobs[2].Name != "c" {
		t.Fatalf("jobs not canonical: %+v", back.Jobs)
	}
	if !reflect.DeepEqual(back.Assignment, asn) {
		t.Fatalf("assignment diverged: %+v", back.Assignment)
	}
	data2, err := EncodeCheckpoint(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding a decoded checkpoint changed its bytes")
	}

	// Corruption must be detected.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 1
	if _, err := DecodeCheckpoint(bad); err == nil {
		t.Fatal("bit-flipped checkpoint decoded without error")
	}
	// A job without a placement cannot encode.
	ck2 := ck
	ck2.Assignment = jobs.Assignment{"a": {}, "b": {}}
	if _, err := EncodeCheckpoint(&ck2); err == nil {
		t.Fatal("checkpoint with a placement-less job encoded")
	}
}

// TestGroupCommitConcurrentAppends: many goroutines appending
// concurrently all get durable acknowledgements, and every record is
// recovered; their leaders may have coalesced them into fewer writes
// than records (not directly observable, so we just assert integrity).
func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("g%d-%03d", g, i)
				if err := l.Append(RequestRecord(jobs.InsertReq(name, 0, 64))); err != nil {
					t.Errorf("append %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != goroutines*per {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), goroutines*per)
	}
	seen := make(map[string]bool)
	for _, r := range rec.Records {
		if seen[r.Req.Name] {
			t.Fatalf("record %q recovered twice", r.Req.Name)
		}
		seen[r.Req.Name] = true
	}
}

// TestObserverSeesGroupBeforeWaitReturns: with concurrent appenders,
// every record a Wait acknowledges was already handed to the Observer
// (acked ⇒ shipped), and records enqueued before one Wait are observed
// as one group: one contiguous span.
func TestObserverSeesGroupBeforeWaitReturns(t *testing.T) {
	var (
		mu       sync.Mutex
		observed = make(map[string]int) // name -> observed span count
		spans    int
	)
	observe := func(seg uint64, off int64, p []byte) {
		if off == 0 {
			return // a segment header
		}
		recs, valid := ScanRecords(p)
		mu.Lock()
		defer mu.Unlock()
		if valid != len(p) {
			t.Errorf("observed span of %d bytes holds %d valid bytes", len(p), valid)
		}
		spans++
		for _, r := range recs {
			observed[r.Req.Name]++
		}
	}
	l, _, err := Open(t.TempDir(), Options{Observer: observe})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	shipped := func(name string) bool {
		mu.Lock()
		defer mu.Unlock()
		return observed[name] == 1
	}

	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("g%d-%03d", g, i)
				if err := l.Append(RequestRecord(jobs.InsertReq(name, 0, 64))); err != nil {
					t.Errorf("append %s: %v", name, err)
					return
				}
				if !shipped(name) {
					t.Errorf("Append(%s) returned before the Observer saw its group exactly once", name)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Three records enqueued before any Wait form one group.
	mu.Lock()
	before := spans
	mu.Unlock()
	var tickets []Ticket
	for _, name := range []string{"x", "y", "z"} {
		tk, err := l.Enqueue(RequestRecord(jobs.InsertReq(name, 0, 64)))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for i := len(tickets) - 1; i >= 0; i-- {
		if err := l.Wait(tickets[i]); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := spans - before; got != 1 {
		t.Fatalf("three records enqueued before one Wait were observed as %d spans, want 1", got)
	}
	for _, name := range []string{"x", "y", "z"} {
		if observed[name] != 1 {
			t.Fatalf("record %s observed %d times, want 1", name, observed[name])
		}
	}
}

// TestFailedWriteReachesEveryWaiter: when a group's write fails, every
// waiter of that group gets the write error (none sees nil), the
// Observer never sees the group, and the failure is sticky: a later
// Enqueue fails at once.
func TestFailedWriteReachesEveryWaiter(t *testing.T) {
	var observedSpans int
	l, _, err := Open(t.TempDir(), Options{Observer: func(_ uint64, off int64, _ []byte) {
		if off != 0 {
			observedSpans++
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	tickets := make([]Ticket, n)
	for i := range tickets {
		if tickets[i], err = l.Enqueue(RequestRecord(jobs.InsertReq(fmt.Sprintf("r%d", i), 0, 64))); err != nil {
			t.Fatal(err)
		}
	}
	// Sabotage the segment file so the group's one write fails.
	l.f.Close()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, tk := range tickets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = l.Wait(tk)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("waiter %d of a failed group got nil", i)
		}
		if err != errs[0] {
			t.Fatalf("waiter %d got %v, waiter 0 got %v: want the group's one write error", i, err, errs[0])
		}
	}
	if observedSpans != 0 {
		t.Fatalf("the Observer saw %d span(s) of a failed group", observedSpans)
	}
	if _, err := l.Enqueue(RequestRecord(jobs.InsertReq("later", 0, 64))); err != errs[0] {
		t.Fatalf("Enqueue after a failed write = %v, want the sticky %v", err, errs[0])
	}
	if err := l.Close(); err != errs[0] {
		t.Fatalf("Close after a failed write = %v, want the sticky %v", err, errs[0])
	}
}

// TestAppendAfterClose fails fast with ErrClosed.
func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Append(RequestRecord(jobs.InsertReq("late", 0, 64))); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); err != ErrClosed {
		t.Fatalf("rotate after close: %v, want ErrClosed", err)
	}
	l.Close() // idempotent
}

// TestFsyncOptionSmoke: the Fsync path works end to end.
func TestFsyncOptionSmoke(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("durable", 0, 64))); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil || len(rec.Records) != 1 {
		t.Fatalf("records %d err %v", len(rec.Records), err)
	}
}

// TestMidLogCorruptionInEarlierSegment: an invalid frame in a non-final
// segment is corruption, not a torn tail.
func TestMidLogCorruptionInEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("seg1", 0, 64))); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("seg2", 0, 64))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	p1 := segPath(dir, 1)
	data, _ := os.ReadFile(p1)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p1, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mid-log corruption in segment 1 did not error")
	}
}

// TestReadDoesNotMutate: wal.Read on a torn log reports the tail but
// leaves the file untouched.
func TestReadDoesNotMutate(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	path := segPath(dir, 1)
	full, _ := os.ReadFile(path)
	cut := len(full) - 3
	if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("Read did not report the torn tail")
	}
	st, _ := os.Stat(path)
	if st.Size() != int64(cut) {
		t.Fatalf("Read mutated the file: %d bytes, want %d", st.Size(), cut)
	}
	if filepath.Ext(path) != segSuffix {
		t.Fatalf("unexpected segment suffix in %s", path)
	}
}
