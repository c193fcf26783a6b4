// Crash-injection differential tests for the durability subsystem: the
// WAL is "killed" at randomized byte offsets — including mid-record and
// mid-group-commit — by truncating the log file at that offset, exactly
// the prefix a crashed process would have left on disk. Recovery must
// truncate the torn tail cleanly, replay the surviving records, and —
// after the test re-applies the un-acked tail of the workload — land on
// a state differential-equal to an uninterrupted run.
package realloc

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/wal"
	"repro/internal/workload"
)

// crashBurst builds the deterministic burst workload the crash tests
// replay: small enough that 64 recoveries stay fast, busy enough to
// exercise waves of arrivals and departures across 4 shards.
func crashBurst(t *testing.T) []jobs.Request {
	t.Helper()
	cfg := workload.BurstConfig{Seed: 17, Machines: 4, Horizon: 1024, Waves: 3}
	reqs, err := workload.Burst(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) < 200 {
		t.Fatalf("burst workload too small: %d requests", len(reqs))
	}
	return reqs
}

// walOptions is the stack configuration shared by the original and the
// recovered schedulers.
func walOptions(extra ...Option) []Option {
	return append([]Option{WithMachines(4), WithShards(4)}, extra...)
}

// copyWALDir clones a WAL directory, truncating the named segment to
// `cut` bytes — the simulated crash point.
func copyWALDir(t *testing.T, src, dst, cutSeg string, cut int) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == cutSeg && cut < len(data) {
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func assertAssignmentsEqual(t *testing.T, what string, got, want Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, want %d", what, len(got), len(want))
	}
	for name, wp := range want {
		gp, ok := got[name]
		if !ok {
			t.Fatalf("%s: job %q missing", what, name)
		}
		if gp != wp {
			t.Fatalf("%s: job %q at m%d/t%d, want m%d/t%d",
				what, name, gp.Machine, gp.Slot, wp.Machine, wp.Slot)
		}
	}
}

// TestCrashRecoveryDifferential is the crash-at-any-offset property:
// run the burst workload with the WAL on, then for >= 64 randomized
// crash offsets (uniform over the log, plus targeted mid-frame cuts)
// truncate the log at the offset, recover, re-apply the requests the
// surviving log did not cover, and require the recovered scheduler to
// be assignment-identical to the uninterrupted run, feasible under
// internal/feasible, and self-check clean.
func TestCrashRecoveryDifferential(t *testing.T) {
	reqs := crashBurst(t)
	srcDir := filepath.Join(t.TempDir(), "wal")
	s := NewSharded(walOptions(WithWAL(srcDir))...)
	for i, r := range reqs {
		if _, err := Apply(s, r); err != nil {
			t.Fatalf("request %d (%s): %v", i, r, err)
		}
	}
	want := s.Snapshot()
	s.Close()

	const seg = "00000001.wal"
	walBytes, err := os.ReadFile(filepath.Join(srcDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("workload: %d requests, wal: %d bytes", len(reqs), len(walBytes))

	crashes := 64
	if testing.Short() {
		crashes = 12
	}
	rng := rand.New(rand.NewSource(42))
	offsets := make([]int, 0, crashes)
	// Targeted cuts: clean-empty, torn header, mid-first-frame, one byte
	// short of complete (a torn final group commit), and complete.
	offsets = append(offsets, 0, 7, 21, len(walBytes)-1, len(walBytes))
	for len(offsets) < crashes {
		offsets = append(offsets, rng.Intn(len(walBytes)+1))
	}

	for ci, off := range offsets {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%03d", ci))
		copyWALDir(t, srcDir, dir, seg, off)
		rs, rec, err := OpenRecovered(dir, walOptions()...)
		if err != nil {
			t.Fatalf("crash at byte %d: recovery failed: %v", off, err)
		}
		if rec.CheckpointLoaded {
			t.Fatalf("crash at byte %d: phantom checkpoint", off)
		}
		if rec.ReplayFailures != 0 {
			t.Fatalf("crash at byte %d: %d replay failures", off, rec.ReplayFailures)
		}
		k := rec.RequestsReplayed
		if k > len(reqs) {
			t.Fatalf("crash at byte %d: replayed %d requests, only %d were issued", off, k, len(reqs))
		}
		// Re-apply the un-acked tail: every request the surviving log
		// prefix does not cover.
		for i, r := range reqs[k:] {
			if _, err := Apply(rs, r); err != nil {
				t.Fatalf("crash at byte %d: tail request %d (%s): %v", off, k+i, r, err)
			}
		}
		got := rs.Snapshot()
		assertAssignmentsEqual(t, fmt.Sprintf("crash at byte %d (recovered %d/%d requests)", off, k, len(reqs)),
			got.Assignment, want.Assignment)
		if err := feasible.VerifySchedule(got.Jobs, got.Assignment, got.Machines); err != nil {
			t.Fatalf("crash at byte %d: recovered schedule infeasible: %v", off, err)
		}
		if err := rs.SelfCheck(); err != nil {
			t.Fatalf("crash at byte %d: self-check: %v", off, err)
		}
		rs.Close()
	}
}

// TestCrashRecoveryWithCheckpoint crashes in the tail AFTER a mid-run
// checkpoint: recovery restores the image (no history replay), replays
// the surviving tail records, and the test re-applies the rest. A
// checkpoint restore re-admits the snapshot's jobs canonically, so
// placements are recomputed — the durable contract is the exact job
// set, a feasible schedule, and determinism (two recoveries from the
// same bytes agree placement-for-placement), all of which are asserted.
// The cuts start after the checkpoint record: a cut inside it with
// segment 1 already pruned is a state Log.Checkpoint never leaves,
// since it prunes only once the image is synced.
// TestCrashInsideCheckpoint covers the cuts inside it.
func TestCrashRecoveryWithCheckpoint(t *testing.T) {
	reqs := crashBurst(t)
	mid := len(reqs) / 2
	srcDir := filepath.Join(t.TempDir(), "wal")
	s := NewSharded(walOptions(WithWAL(srcDir))...)
	for i, r := range reqs[:mid] {
		if _, err := Apply(s, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("mid-run checkpoint: %v", err)
	}
	for i, r := range reqs[mid:] {
		if _, err := Apply(s, r); err != nil {
			t.Fatalf("request %d: %v", mid+i, err)
		}
	}
	want := s.Snapshot()
	s.Close()

	const seg = "00000002.wal" // post-checkpoint segment
	tailBytes, err := os.ReadFile(filepath.Join(srcDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(srcDir, "00000001.wal")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint did not prune segment 1: %v", err)
	}

	crashes := 16
	if testing.Short() {
		crashes = 6
	}
	ckEnd := checkpointEnd(t, tailBytes)
	rng := rand.New(rand.NewSource(7))
	offsets := []int{ckEnd, len(tailBytes) - 2, len(tailBytes)}
	for len(offsets) < crashes {
		offsets = append(offsets, ckEnd+rng.Intn(len(tailBytes)-ckEnd+1))
	}

	wantSet := jobNameSet(want.Jobs)
	for ci, off := range offsets {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ckpt-crash-%03d", ci))
		copyWALDir(t, srcDir, dir, seg, off)
		recoverOnce := func() (Assignment, *Recovery) {
			rs, rec, err := OpenRecovered(dir, walOptions()...)
			if err != nil {
				t.Fatalf("crash at tail byte %d: %v", off, err)
			}
			defer rs.Close()
			if !rec.CheckpointLoaded || rec.CheckpointJobs == 0 {
				t.Fatalf("crash at tail byte %d: checkpoint not loaded (%+v)", off, rec)
			}
			k := mid + rec.RequestsReplayed
			for i, r := range reqs[k:] {
				if _, err := Apply(rs, r); err != nil {
					t.Fatalf("crash at tail byte %d: tail request %d (%s): %v", off, k+i, r, err)
				}
			}
			snap := rs.Snapshot()
			if len(snap.Jobs) != len(wantSet) {
				t.Fatalf("crash at tail byte %d: recovered %d jobs, want %d", off, len(snap.Jobs), len(wantSet))
			}
			for _, j := range snap.Jobs {
				if !wantSet[j.Name] {
					t.Fatalf("crash at tail byte %d: unexpected job %q", off, j.Name)
				}
			}
			if err := feasible.VerifySchedule(snap.Jobs, snap.Assignment, snap.Machines); err != nil {
				t.Fatalf("crash at tail byte %d: infeasible: %v", off, err)
			}
			if err := rs.SelfCheck(); err != nil {
				t.Fatalf("crash at tail byte %d: self-check: %v", off, err)
			}
			return snap.Assignment, rec
		}
		asn1, _ := recoverOnce()
		asn2, _ := recoverOnce()
		assertAssignmentsEqual(t, fmt.Sprintf("determinism at tail byte %d", off), asn2, asn1)
	}
}

// checkpointEnd returns the offset in a segment's bytes just past the
// checkpoint record at its head.
func checkpointEnd(t *testing.T, seg []byte) int {
	t.Helper()
	const segHeader = 16
	recs, _ := wal.ScanRecords(seg[segHeader:])
	if len(recs) == 0 || recs[0].Kind != wal.KindCheckpoint {
		t.Fatal("segment does not open with a checkpoint record")
	}
	n, _ := wal.FrameLen(seg[segHeader:], len(seg))
	return segHeader + wal.FrameHeaderLen + n
}

// TestCrashInsideCheckpoint crashes while a checkpoint is being written:
// segment 2 is cut anywhere from its header to one byte short of the
// complete checkpoint record, and segment 1 has not been pruned yet (it
// is pruned only after the record is synced). Recovery must find no
// checkpoint, replay segment 1 from the start and, once the test
// re-applies the requests after it, be assignment-identical to the
// uninterrupted run.
func TestCrashInsideCheckpoint(t *testing.T) {
	reqs := crashBurst(t)
	mid := len(reqs) / 2
	srcDir := filepath.Join(t.TempDir(), "wal")
	s := NewSharded(walOptions(WithWAL(srcDir))...)
	for i, r := range reqs[:mid] {
		if _, err := Apply(s, r); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Every request has returned, so its record is in segment 1.
	seg1, err := os.ReadFile(filepath.Join(srcDir, "00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("mid-run checkpoint: %v", err)
	}
	for i, r := range reqs[mid:] {
		if _, err := Apply(s, r); err != nil {
			t.Fatalf("request %d: %v", mid+i, err)
		}
	}
	want := s.Snapshot()
	s.Close()
	seg2, err := os.ReadFile(filepath.Join(srcDir, "00000002.wal"))
	if err != nil {
		t.Fatal(err)
	}
	ckEnd := checkpointEnd(t, seg2)

	crashes := 16
	if testing.Short() {
		crashes = 6
	}
	rng := rand.New(rand.NewSource(11))
	offsets := []int{0, 7, 16, 17, ckEnd - 1}
	for len(offsets) < crashes {
		offsets = append(offsets, rng.Intn(ckEnd))
	}
	for ci, off := range offsets {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ckpt-torn-%03d", ci))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "00000001.wal"), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "00000002.wal"), seg2[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, rec, err := OpenRecovered(dir, walOptions()...)
		if err != nil {
			t.Fatalf("cut at byte %d of the checkpoint: recovery failed: %v", off, err)
		}
		if rec.CheckpointLoaded || rec.RequestsReplayed != mid || rec.ReplayFailures != 0 {
			t.Fatalf("cut at byte %d of the checkpoint: %+v, want segment 1's %d requests and no checkpoint", off, rec, mid)
		}
		for i, r := range reqs[mid:] {
			if _, err := Apply(rs, r); err != nil {
				t.Fatalf("cut at byte %d of the checkpoint: tail request %d (%s): %v", off, mid+i, r, err)
			}
		}
		assertAssignmentsEqual(t, fmt.Sprintf("cut at byte %d of the checkpoint", off), rs.Snapshot().Assignment, want.Assignment)
		if err := rs.SelfCheck(); err != nil {
			t.Fatalf("cut at byte %d of the checkpoint: self-check: %v", off, err)
		}
		rs.Close()
	}
}

func jobNameSet(js []jobs.Job) map[string]bool {
	out := make(map[string]bool, len(js))
	for _, j := range js {
		out[j.Name] = true
	}
	return out
}

// TestRecoveredSchedulerContinuesLogging: after OpenRecovered, the WAL
// is re-attached — new requests append to the recovered log and survive
// a second recovery.
func TestRecoveredSchedulerContinuesLogging(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s := NewSharded(walOptions(WithWAL(dir))...)
	if _, err := s.Insert(Job{Name: "first", Window: Win(0, 64)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	r1, rec, err := OpenRecovered(dir, walOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if rec.RequestsReplayed != 1 {
		t.Fatalf("first recovery replayed %d requests, want 1", rec.RequestsReplayed)
	}
	if _, err := r1.Insert(Job{Name: "second", Window: Win(64, 128)}); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyBatch(r1, []Request{InsertReq("third", 128, 256)}); err != nil {
		t.Fatal(err)
	}
	r1.Close()

	r2, rec2, err := OpenRecovered(dir, walOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rec2.RequestsReplayed != 3 {
		t.Fatalf("second recovery replayed %d requests, want 3", rec2.RequestsReplayed)
	}
	snap := r2.Snapshot()
	for _, name := range []string{"first", "second", "third"} {
		if _, ok := snap.Assignment[name]; !ok {
			t.Fatalf("job %q lost across recoveries", name)
		}
	}
	// Checkpoint on the recovered instance, then recover a third time:
	// the checkpoint bounds replay to zero records.
	if err := r2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	r3, rec3, err := OpenRecovered(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if !rec3.CheckpointLoaded || rec3.CheckpointJobs != 3 || rec3.RecordsReplayed != 0 {
		t.Fatalf("third recovery: %+v, want checkpoint with 3 jobs and no tail", rec3)
	}
}

// TestOpenRecoveredImageOwnsTopology: with a checkpoint the image's
// machine count and shard partition win over explicit options, so a
// process restarted with its original, smaller options after growing
// the pool recovers the grown pool and every job where it was.
func TestOpenRecoveredImageOwnsTopology(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s := NewSharded(walOptions(WithWAL(dir))...)
	for i := 0; i < 32; i++ {
		start := int64(i%8) * 64
		if _, err := s.Insert(Job{Name: fmt.Sprintf("j%02d", i), Window: Win(start, start+64)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Resize(12); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Snapshot()
	s.Close()
	if want.Machines != 12 {
		t.Fatalf("grown pool has %d machines, want 12", want.Machines)
	}

	r, rec, err := OpenRecovered(dir, walOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !rec.CheckpointLoaded || rec.CheckpointJobs != len(want.Jobs) {
		t.Fatalf("recovery %+v, want a checkpoint with %d jobs", rec, len(want.Jobs))
	}
	got := r.Snapshot()
	if got.Machines != want.Machines {
		t.Fatalf("recovered %d machines, want the image's %d", got.Machines, want.Machines)
	}
	if fmt.Sprint(got.ShardMachines) != fmt.Sprint(want.ShardMachines) {
		t.Fatalf("recovered shard partition %v, want the image's %v", got.ShardMachines, want.ShardMachines)
	}
	// A restore re-admits the image's jobs canonically, so the contract
	// is the job set and a feasible schedule on the image's pool, not
	// the original placements.
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("recovered %d jobs, want %d", len(got.Jobs), len(want.Jobs))
	}
	wantWin := make(map[string]Window, len(want.Jobs))
	for _, j := range want.Jobs {
		wantWin[j.Name] = j.Window
	}
	for _, j := range got.Jobs {
		if w, ok := wantWin[j.Name]; !ok || w != j.Window {
			t.Fatalf("recovered job %q %v, want it as in the image (%v, present %v)", j.Name, j.Window, w, ok)
		}
	}
	if err := feasible.VerifySchedule(got.Jobs, got.Assignment, got.Machines); err != nil {
		t.Fatalf("recovered schedule infeasible: %v", err)
	}
}

// TestWithWALRefusesExistingState: NewSharded must not silently
// overwrite a directory holding durable state.
func TestWithWALRefusesExistingState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s := NewSharded(walOptions(WithWAL(dir))...)
	if _, err := s.Insert(Job{Name: "keep", Window: Win(0, 64)}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("NewSharded over an existing WAL did not panic")
		}
	}()
	NewSharded(walOptions(WithWAL(dir))...)
}
