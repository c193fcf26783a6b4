package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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

// TestRotateAndCheckpoint: a checkpoint rotates to the next segment,
// writes its image as that segment's first record and prunes the old
// one; appends after it land behind the image, and recovery restores
// the image and replays only the records after it.
func TestRotateAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("old", 0, 64))); err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{
		ShardMachines: []int{2, 3},
		Jobs:          []jobs.Job{{Name: "old", Window: jobs.Window{Start: 0, End: 64}}},
		Assignment:    jobs.Assignment{"old": {Machine: 1, Slot: 7}},
	}
	if err := l.Checkpoint(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segPath(dir, 1)); !os.IsNotExist(err) {
		t.Fatalf("segment 1 not pruned after checkpoint: %v", err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("new", 64, 128))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "00000002.wal" {
		t.Fatalf("log directory holds %v, want only segment 2", entries)
	}

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

// TestCheckpointEncodeFailsFirst: an image that cannot be framed is
// refused before the log rotates or prunes anything.
func TestCheckpointEncodeFailsFirst(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(RequestRecord(jobs.InsertReq("a", 0, 64))); err != nil {
		t.Fatal(err)
	}
	bad := &Checkpoint{ShardMachines: []int{1}, Jobs: []jobs.Job{{Name: "a"}}, Assignment: jobs.Assignment{}}
	if err := l.Checkpoint(bad); err == nil {
		t.Fatal("checkpoint with a placement-less job written")
	}
	if segs, _ := listSegments(dir); !reflect.DeepEqual(segs, []uint64{1}) {
		t.Fatalf("segments after a refused checkpoint: %v, want [1]", segs)
	}
	if err := l.Append(RequestRecord(jobs.DeleteReq("a"))); err != nil {
		t.Fatalf("append after a refused checkpoint: %v", err)
	}
}

// TestOldSegmentVersionRefused: a log written by the format that kept
// its image in a separate checkpoint file is refused with an error
// naming the version, never truncated as a torn header.
func TestOldSegmentVersionRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("a", 0, 64))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := segPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = 1 // the segment header's u32 version
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func() error{
		"Read": func() error { _, err := Read(dir); return err },
		"Open": func() error { _, _, err := Open(dir, Options{}); return err },
	} {
		err := read()
		if err == nil || !strings.Contains(err.Error(), "unsupported segment version 1") {
			t.Fatalf("%s of a version 1 segment: %v, want an error naming version 1", name, err)
		}
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatal("refusing a version 1 segment changed its bytes")
	}
}

// TestCheckpointCodecCanonical: a checkpoint record roundtrips, and
// equal images encode to identical bytes regardless of input job order.
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
	ck := Checkpoint{ShardMachines: []int{1, 4}, Jobs: js, Assignment: asn}
	data, err := AppendFrame(nil, Record{Kind: KindCheckpoint, Checkpoint: &ck})
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := ScanRecords(data)
	if valid != len(data) || len(recs) != 1 || recs[0].Kind != KindCheckpoint {
		t.Fatalf("checkpoint frame scans to %+v (%d of %d bytes valid)", recs, valid, len(data))
	}
	back := recs[0].Checkpoint
	if !reflect.DeepEqual(back.ShardMachines, []int{1, 4}) {
		t.Fatalf("shard partition diverged: %+v", back)
	}
	if len(back.Jobs) != 3 || back.Jobs[0].Name != "a" || back.Jobs[2].Name != "c" {
		t.Fatalf("jobs not canonical: %+v", back.Jobs)
	}
	if !reflect.DeepEqual(back.Assignment, asn) {
		t.Fatalf("assignment diverged: %+v", back.Assignment)
	}
	data2, err := AppendFrame(nil, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding a decoded checkpoint changed its bytes")
	}

	// Corruption must be detected.
	bad := append([]byte(nil), data...)
	bad[len(bad)/2] ^= 1
	if recs, valid := ScanRecords(bad); len(recs) != 0 || valid != 0 {
		t.Fatal("bit-flipped checkpoint decoded without error")
	}
	// A job without a placement, a shard without machines and a
	// duplicate name cannot encode.
	for name, c := range map[string]Checkpoint{
		"unplaced":    {ShardMachines: []int{1, 4}, Jobs: js, Assignment: jobs.Assignment{"a": {}, "b": {}}},
		"no shards":   {Assignment: asn},
		"empty shard": {ShardMachines: []int{1, 0}, Assignment: asn},
		"duplicate":   {ShardMachines: []int{1}, Jobs: append(js, js[0]), Assignment: asn},
	} {
		if _, err := AppendFrame(nil, Record{Kind: KindCheckpoint, Checkpoint: &c}); err == nil {
			t.Fatalf("%s checkpoint encoded", name)
		}
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
	if err := l.Checkpoint(&Checkpoint{ShardMachines: []int{1}}); err != ErrClosed {
		t.Fatalf("checkpoint after close: %v, want ErrClosed", err)
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

// TestMidLogCorruptionInEarlierSegment: an invalid frame in a
// replayed segment other than the last is corruption, not a torn tail.
// A segment before the newest checkpoint is not replayed, so damage
// there is ignored until the checkpoint itself is torn and replay has
// to start at the older segment again.
func TestMidLogCorruptionInEarlierSegment(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("seg1", 0, 64))); err != nil {
		t.Fatal(err)
	}
	p1 := segPath(dir, 1)
	seg1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(&Checkpoint{ShardMachines: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(RequestRecord(jobs.InsertReq("seg2", 0, 64))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Segment 1 survives the prune (a crash before it), damaged.
	seg1[len(seg1)-1] ^= 0xff
	if err := os.WriteFile(p1, seg1, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Read(dir)
	if err != nil {
		t.Fatalf("a damaged segment before the checkpoint was read: %v", err)
	}
	if rec.Checkpoint == nil || len(rec.Records) != 1 || rec.Records[0].Req.Name != "seg2" {
		t.Fatalf("recovered %+v, want the checkpoint and the seg2 insert", rec)
	}
	p2 := segPath(dir, 2)
	seg2, _ := os.ReadFile(p2)
	seg2[segHeaderLen+FrameHeaderLen+1] ^= 0xff // inside the checkpoint record
	if err := os.WriteFile(p2, seg2, 0o644); err != nil {
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
