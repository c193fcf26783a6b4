// Golden format-compatibility test for the durability artifacts: a
// committed WAL segment under testdata/recovery, opening with a
// checkpoint record, must keep recovering to the byte-identical
// rendered state, and the codec must keep producing byte-identical
// encodings for it. A change that
// silently drifts the on-disk format — field order, varint widths,
// framing, canonical job order — fails here instead of corrupting real
// logs. Regenerate with -update-recovery-golden only when the format is
// MEANT to change, bump wal's version constants, and say so in the
// commit.
package realloc

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/wal"
)

var updateRecoveryGolden = flag.Bool("update-recovery-golden", false,
	"rewrite the committed WAL artifacts and their golden rendering")

const recoveryDir = "testdata/recovery"

// buildRecoveryArtifacts runs the scripted durable scenario into dir:
// per-request traffic, a batch, a pool resize, a mid-run checkpoint,
// then post-checkpoint traffic — so the committed segment holds every
// record kind after the checkpoint record at its head.
func buildRecoveryArtifacts(t *testing.T, dir string) {
	t.Helper()
	s := NewSharded(WithMachines(4), WithShards(2), WithWAL(dir))
	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("g%02d", i)
		if _, err := s.Insert(Job{Name: name, Window: Win(0, 4096)}); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	batch := []Request{
		InsertReq("b0", 0, 1024), InsertReq("b1", 1024, 2048),
		InsertReq("b2", 2048, 4096), DeleteReq("g03"),
	}
	if _, err := ApplyBatch(s, batch); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if _, err := s.Resize(6); err != nil {
		t.Fatalf("resize: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := s.Insert(Job{Name: "t0", Window: Win(0, 2048)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Delete("g05"); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyBatch(s, []Request{
		InsertReq("t1", 0, 512), InsertReq("t2", 512, 1024), DeleteReq("b1"),
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// renderRecovery recovers from dir and renders everything observable:
// the recovery stats and the full recovered schedule, sorted.
func renderRecovery(t *testing.T, dir string) string {
	t.Helper()
	s, rec, err := OpenRecovered(dir, WithMachines(6), WithShards(2))
	if err != nil {
		t.Fatalf("recovering golden artifacts: %v", err)
	}
	defer s.Close()
	var b strings.Builder
	fmt.Fprintf(&b, "checkpoint_loaded %v\n", rec.CheckpointLoaded)
	fmt.Fprintf(&b, "checkpoint_jobs %d\n", rec.CheckpointJobs)
	fmt.Fprintf(&b, "records_replayed %d\n", rec.RecordsReplayed)
	fmt.Fprintf(&b, "requests_replayed %d\n", rec.RequestsReplayed)
	fmt.Fprintf(&b, "resizes_replayed %d\n", rec.ResizesReplayed)
	fmt.Fprintf(&b, "replay_failures %d\n", rec.ReplayFailures)
	snap := s.Snapshot()
	fmt.Fprintf(&b, "machines %d shard_machines %v active %d\n", snap.Machines, snap.ShardMachines, s.Active())
	names := make([]string, 0, len(snap.Assignment))
	for name := range snap.Assignment {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("-- recovered assignment --\n")
	for _, name := range names {
		p := snap.Assignment[name]
		fmt.Fprintf(&b, "%s m%d t%d\n", name, p.Machine, p.Slot)
	}
	return b.String()
}

// copyDir clones the committed artifacts so recovery's tail truncation
// and appends never touch the repository copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".golden") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoveryGoldenFormat(t *testing.T) {
	goldenPath := filepath.Join(recoveryDir, "recovery.golden")
	if *updateRecoveryGolden {
		if err := os.RemoveAll(recoveryDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(recoveryDir, 0o755); err != nil {
			t.Fatal(err)
		}
		buildRecoveryArtifacts(t, recoveryDir)
		work := filepath.Join(t.TempDir(), "render")
		copyDir(t, recoveryDir, work)
		render := renderRecovery(t, work)
		if err := os.WriteFile(goldenPath, []byte(render), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-recovery-golden): %v", err)
	}
	work := filepath.Join(t.TempDir(), "render")
	copyDir(t, recoveryDir, work)
	got := renderRecovery(t, work)
	if got != string(want) {
		t.Fatalf("recovery of the committed artifacts diverged from the golden rendering:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Codec byte-identity: re-framing the committed segment's records —
	// the checkpoint at its head and the records after it — must
	// reproduce the segment byte for byte (the encoders are canonical).
	segs, err := filepath.Glob(filepath.Join(recoveryDir, "*.wal"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("committed artifacts hold segments %v (%v), want one", segs, err)
	}
	segBytes, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	const segHeader = 16
	recs, valid := wal.ScanRecords(segBytes[segHeader:])
	if valid != len(segBytes)-segHeader {
		t.Fatalf("committed segment has %d invalid byte(s)", len(segBytes)-segHeader-valid)
	}
	if len(recs) == 0 || recs[0].Kind != wal.KindCheckpoint {
		t.Fatal("committed segment does not open with a checkpoint record")
	}
	var reframed []byte
	for i, r := range recs {
		if reframed, err = wal.AppendFrame(reframed, r); err != nil {
			t.Fatalf("record %d no longer encodes: %v", i, err)
		}
	}
	if !bytes.Equal(reframed, segBytes[segHeader:]) {
		t.Fatal("record re-framing drifted from the committed segment bytes")
	}
}
