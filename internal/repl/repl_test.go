package repl_test

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	realloc "repro"
	"repro/internal/jobs"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

func TestTenantDir(t *testing.T) {
	cases := map[string]string{
		"acme":      "acme",
		"a/b":       "a%2Fb",
		"..":        "..", // dots pass through; the %XX escape keeps '/' out
		"Ünicode":   "%C3%9Cnicode",
		"a b":       "a%20b",
		"x-y_z.9":   "x-y_z.9",
		"":          "",
		"load-0":    "load-0",
		"per%cent":  "per%25cent",
		"tab\there": "tab%09here",
	}
	for in, want := range cases {
		if got := repl.TenantDir(in); got != want {
			t.Errorf("TenantDir(%q) = %q, want %q", in, got, want)
		}
	}
	// Injectivity spot check: escaping distinguishes the escape char.
	if repl.TenantDir("a%2Fb") == repl.TenantDir("a/b") {
		t.Error("TenantDir is not injective: the escaped and raw forms collide")
	}
}

func TestEpochRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if e, err := repl.ReadEpoch(dir); err != nil || e != 0 {
		t.Fatalf("fresh dir: ReadEpoch = %d, %v; want 0, nil", e, err)
	}
	if err := repl.WriteEpoch(dir, 7); err != nil {
		t.Fatalf("WriteEpoch: %v", err)
	}
	if e, err := repl.ReadEpoch(dir); err != nil || e != 7 {
		t.Fatalf("ReadEpoch = %d, %v; want 7, nil", e, err)
	}
}

// stackOptions is the scheduler configuration shared by the primary
// and the follower — replay only reproduces the primary's decisions
// when both sides run the same stack.
func stackOptions() []realloc.Option {
	return []realloc.Option{realloc.WithMachines(8), realloc.WithShards(2)}
}

func newFollowerSched(_ string, ck *wal.Checkpoint) (*shard.Scheduler, error) {
	return realloc.NewShardedFromCheckpoint(ck, stackOptions()...)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func sameSnapshot(t *testing.T, what string, want, got shard.Snapshot) {
	t.Helper()
	if len(got.Jobs) != len(want.Jobs) {
		t.Fatalf("%s: %d jobs, want %d", what, len(got.Jobs), len(want.Jobs))
	}
	if len(got.Assignment) != len(want.Assignment) {
		t.Fatalf("%s: %d placements, want %d", what, len(got.Assignment), len(want.Assignment))
	}
	for name, pl := range want.Assignment {
		g, ok := got.Assignment[name]
		if !ok {
			t.Fatalf("%s: job %q missing", what, name)
		}
		if g != pl {
			t.Fatalf("%s: job %q placed at %+v, want %+v", what, name, g, pl)
		}
	}
}

// TestWarmFollowerPromoteNow is the end-to-end happy path: a follower
// connects before any writes, stays one group commit behind through a
// mid-stream checkpoint, and an operator promotion yields a scheduler
// whose schedule matches the primary's exactly.
func TestWarmFollowerPromoteNow(t *testing.T) {
	primaryDir := t.TempDir()
	src := repl.NewSource(repl.SourceConfig{Epoch: 0, Logf: t.Logf})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer src.Close()

	obs := src.Export("acme", primaryDir)
	prim, _, err := realloc.OpenRecovered(primaryDir,
		append(stackOptions(), realloc.WithWALObserver(obs))...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	defer prim.Close()

	folDir := t.TempDir()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          folDir,
		NewScheduler: newFollowerSched,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "follower warm", func() bool { return fol.Stats().Warm == 1 })

	records := 0
	for i := 0; i < 150; i++ {
		r := jobs.InsertReq(fmt.Sprintf("job-%03d", i), jobs.Time(i*16), jobs.Time(i*16+8))
		if _, err := prim.Apply(r); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		records++
		if i == 75 {
			if err := prim.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
	}
	for i := 0; i < 30; i++ {
		if _, err := prim.Apply(jobs.DeleteReq(fmt.Sprintf("job-%03d", i*3))); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		records++
	}
	want := prim.Snapshot()

	// Every one of those Applies was acked only after its group commit
	// was handed to the shipper, so the follower converges on exactly
	// `records` replayed records.
	waitUntil(t, "tail replay", func() bool { return fol.Stats().Records >= records })
	if st := fol.Stats(); st.Records != records {
		t.Fatalf("follower replayed %d records, want %d", st.Records, records)
	}
	if st := fol.Stats(); st.Failures != 0 {
		t.Fatalf("follower counted %d replay failures, want 0", st.Failures)
	}

	fol.PromoteNow()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	if e, _ := repl.ReadEpoch(folDir); e != 1 {
		t.Fatalf("promoted epoch on disk = %d, want 1", e)
	}

	adopted := fol.Adopt("acme")
	if adopted == nil {
		t.Fatal("Adopt returned nil after promotion")
	}
	defer adopted.Close()
	sameSnapshot(t, "promoted follower", want, adopted.Snapshot())

	// The promoted scheduler is a real primary: it accepts new writes
	// and logs them to its own (mirrored, now attached) WAL.
	if _, err := adopted.Apply(jobs.InsertReq("post-promote", 100000, 100008)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	if fol.Adopt("acme") != nil {
		t.Fatal("second Adopt should return nil")
	}
}

// TestLateJoinSelfPromote covers the other failover leg: a follower
// that installs an existing checkpoint + segment residue (late join),
// loses the primary, and self-promotes after PromoteAfter. The
// promoted state must match the primary's final schedule, and survive
// a cold restart from the mirrored directory.
func TestLateJoinSelfPromote(t *testing.T) {
	primaryDir := t.TempDir()
	src := repl.NewSource(repl.SourceConfig{Epoch: 0, Logf: t.Logf})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}

	obs := src.Export("acme", primaryDir)
	prim, _, err := realloc.OpenRecovered(primaryDir,
		append(stackOptions(), realloc.WithWALObserver(obs))...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	for i := 0; i < 60; i++ {
		if _, err := prim.Apply(jobs.InsertReq(fmt.Sprintf("early-%02d", i), jobs.Time(i*16), jobs.Time(i*16+8))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, err := prim.Apply(jobs.InsertReq(fmt.Sprintf("late-%02d", i), jobs.Time((i+100)*16), jobs.Time((i+100)*16+8))); err != nil {
			t.Fatalf("residue insert %d: %v", i, err)
		}
	}
	want := prim.Snapshot()

	folDir := t.TempDir()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          folDir,
		NewScheduler: newFollowerSched,
		PromoteAfter: 300 * time.Millisecond,
		RedialEvery:  20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "late join install", func() bool {
		st := fol.Stats()
		return st.Warm == 1 && st.Records >= 40 // the 40 post-checkpoint records
	})

	// Primary dies; the follower self-promotes once the loss outlasts
	// PromoteAfter.
	prim.Close()
	src.Close()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	st := fol.Stats()
	if !st.Promoted {
		t.Fatalf("follower stats not promoted: %+v", st)
	}
	if e := fol.Epoch(); e != 1 {
		t.Fatalf("promoted epoch = %d, want 1", e)
	}

	adopted := fol.Adopt("acme")
	if adopted == nil {
		t.Fatal("Adopt returned nil after self-promotion")
	}
	sameSnapshot(t, "self-promoted follower", want, adopted.Snapshot())
	if _, err := adopted.Apply(jobs.InsertReq("fresh", 1000000, 1000008)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	adopted.Close()

	// Cold restart: the mirror is a real WAL directory.
	reopened, rec, err := realloc.OpenRecovered(filepath.Join(folDir, repl.TenantDir("acme")), stackOptions()...)
	if err != nil {
		t.Fatalf("reopen mirrored WAL: %v", err)
	}
	defer reopened.Close()
	if !rec.CheckpointLoaded {
		t.Error("mirrored directory lost the checkpoint image")
	}
	snap := reopened.Snapshot()
	if len(snap.Jobs) != len(want.Jobs)+1 { // +1 for "fresh"
		t.Fatalf("cold restart holds %d jobs, want %d", len(snap.Jobs), len(want.Jobs)+1)
	}
}

// segmentNames lists dir's entries, sorted: a WAL directory holds only
// its segment files.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestLiveFollowerPrunesMirror: a follower that stays connected while
// the primary checkpoints twice, with traffic before, between and
// after, prunes its mirror as the primary prunes its log. Once it has
// caught up its mirror directory lists exactly the primary's segments,
// those from the newest checkpoint on, so its disk use is bounded by
// the live log, not by its uptime. It still self-promotes and survives
// a cold restart from the pruned mirror.
func TestLiveFollowerPrunesMirror(t *testing.T) {
	primaryDir := t.TempDir()
	src := repl.NewSource(repl.SourceConfig{Epoch: 0, Logf: t.Logf})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	obs := src.Export("acme", primaryDir)
	prim, _, err := realloc.OpenRecovered(primaryDir,
		append(stackOptions(), realloc.WithWALObserver(obs))...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}

	folDir := t.TempDir()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          folDir,
		NewScheduler: newFollowerSched,
		PromoteAfter: 300 * time.Millisecond,
		RedialEvery:  20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "follower warm", func() bool { return fol.Stats().Warm == 1 })

	records := 0
	for phase := 0; phase < 3; phase++ {
		if phase > 0 {
			if err := prim.Checkpoint(); err != nil {
				t.Fatalf("checkpoint %d: %v", phase, err)
			}
		}
		for i := 0; i < 40; i++ {
			at := jobs.Time((phase*40 + i) * 16)
			if _, err := prim.Apply(jobs.InsertReq(fmt.Sprintf("job-%d-%02d", phase, i), at, at+8)); err != nil {
				t.Fatalf("insert %d/%d: %v", phase, i, err)
			}
			records++
		}
	}
	want := prim.Snapshot()
	waitUntil(t, "tail replay", func() bool { return fol.Stats().Records >= records })

	mirror := filepath.Join(folDir, repl.TenantDir("acme"))
	primSegs, folSegs := segmentNames(t, primaryDir), segmentNames(t, mirror)
	if len(primSegs) != 1 {
		t.Fatalf("primary holds segments %v after two checkpoints, want the newest one only", primSegs)
	}
	if fmt.Sprint(folSegs) != fmt.Sprint(primSegs) {
		t.Fatalf("follower mirror holds %v, want the primary's %v", folSegs, primSegs)
	}

	// Primary dies; the follower self-promotes once the loss outlasts
	// PromoteAfter.
	prim.Close()
	src.Close()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	adopted := fol.Adopt("acme")
	if adopted == nil {
		t.Fatal("Adopt returned nil after self-promotion")
	}
	sameSnapshot(t, "self-promoted follower", want, adopted.Snapshot())
	if _, err := adopted.Apply(jobs.InsertReq("fresh", 1000000, 1000008)); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	adopted.Close()

	// Cold restart: the pruned mirror is a real WAL directory.
	reopened, rec, err := realloc.OpenRecovered(mirror, stackOptions()...)
	if err != nil {
		t.Fatalf("reopen mirrored WAL: %v", err)
	}
	defer reopened.Close()
	if !rec.CheckpointLoaded {
		t.Error("pruned mirror lost the checkpoint image")
	}
	if got := len(reopened.Snapshot().Jobs); got != len(want.Jobs)+1 { // +1 for "fresh"
		t.Fatalf("cold restart holds %d jobs, want %d", got, len(want.Jobs)+1)
	}
}

// TestCheckpointPastChunkCapReplicates: a checkpoint image larger than
// one replication frame's data (wire.MaxChunk) still reaches a late
// follower, chunked like any other segment bytes. The follower warms,
// promotes, and holds every job the primary held.
func TestCheckpointPastChunkCapReplicates(t *testing.T) {
	primaryDir := t.TempDir()
	src := repl.NewSource(repl.SourceConfig{Epoch: 0, Logf: t.Logf})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer src.Close()
	obs := src.Export("acme", primaryDir)
	prim, _, err := realloc.OpenRecovered(primaryDir,
		append(stackOptions(), realloc.WithWALObserver(obs))...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}
	defer prim.Close()

	// About 212 encoded bytes a job: 21,000 jobs cross 4 MiB.
	const jobsN, batchN = 21000, 1000
	pad := strings.Repeat("x", 194)
	for b := 0; b < jobsN; b += batchN {
		batch := make([]jobs.Request, 0, batchN)
		for i := b; i < b+batchN; i++ {
			batch = append(batch, jobs.InsertReq(fmt.Sprintf("%s-%05d", pad, i), jobs.Time(i*16), jobs.Time(i*16+16)))
		}
		if _, err := realloc.ApplyBatch(prim, batch); err != nil {
			t.Fatalf("batch at %d: %v", b, err)
		}
	}
	snap := prim.Snapshot()
	image, err := wal.AppendFrame(nil, wal.Record{Kind: wal.KindCheckpoint, Checkpoint: &wal.Checkpoint{
		ShardMachines: snap.ShardMachines, Jobs: snap.Jobs, Assignment: snap.Assignment,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(image) <= wire.MaxChunk {
		t.Fatalf("the image is %d bytes, not past the %d-byte chunk cap", len(image), wire.MaxChunk)
	}
	if err := prim.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if _, err := prim.Apply(jobs.InsertReq("after", 1<<30, 1<<30+16)); err != nil {
		t.Fatal(err)
	}
	want := prim.Snapshot()

	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          t.TempDir(),
		NewScheduler: newFollowerSched,
		RedialEvery:  20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "follower warm from the large image", func() bool {
		st := fol.Stats()
		return st.Warm == 1 && st.Records >= 1
	})
	fol.PromoteNow()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	adopted := fol.Adopt("acme")
	if adopted == nil {
		t.Fatal("Adopt returned nil after promotion")
	}
	defer adopted.Close()
	got := adopted.Snapshot()
	if len(got.Jobs) != len(want.Jobs) || len(want.Jobs) != jobsN+1 {
		t.Fatalf("promoted follower holds %d jobs, want %d", len(got.Jobs), jobsN+1)
	}
	for _, j := range want.Jobs {
		if _, ok := got.Assignment[j.Name]; !ok {
			t.Fatalf("promoted follower lost job %q", j.Name)
		}
	}
}

// TestFollowerRefusesCheckpointFile: a primary that sends its image as
// CheckpointInstall data keeps it outside its log, in the format before
// checkpoint records. The follower refuses that install rather than
// replay the segments without the image.
func TestFollowerRefusesCheckpointFile(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, _, err := wire.ReadFrame(nc, nil); err != nil {
			return
		}
		buf, _ := wire.WriteFrame(nc, nil, &wire.Frame{Kind: wire.KindFollowAck})
		wire.WriteFrame(nc, buf, &wire.Frame{Kind: wire.KindCheckpointInstall, Tenant: "acme", Data: []byte("RCKP image")})
		io.Copy(io.Discard, nc)
	}()
	refused := make(chan string, 1)
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      ln.Addr().String(),
		Dir:          t.TempDir(),
		NewScheduler: newFollowerSched,
		RedialEvery:  20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if line := fmt.Sprintf(format, args...); strings.Contains(line, "older log format") {
				select {
				case refused <- line:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	select {
	case line := <-refused:
		t.Log(line)
	case <-time.After(10 * time.Second):
		t.Fatal("the follower accepted a checkpoint file install")
	}
	if st := fol.Stats(); st.Tenants != 0 {
		t.Fatalf("follower holds %d tenant(s) after a refused install", st.Tenants)
	}
	fol.Close()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}
}

// TestFencedPrimaryRefused: a follower that promoted past the primary
// proves the primary deposed — the handshake must be refused with
// CodeFenced and the Source must surface Fenced().
func TestFencedPrimaryRefused(t *testing.T) {
	src := repl.NewSource(repl.SourceConfig{Epoch: 3, Logf: t.Logf})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer src.Close()

	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	buf, err := wire.WriteFrame(nc, nil, &wire.Frame{Kind: wire.KindFollow, Version: wire.Version, Epoch: 5})
	if err != nil {
		t.Fatalf("write follow: %v", err)
	}
	fr, _, err := wire.ReadFrame(nc, buf)
	if err != nil {
		t.Fatalf("read refusal: %v", err)
	}
	if fr.Kind != wire.KindErr || fr.Code != wire.CodeFenced {
		t.Fatalf("got %v/%v, want Err/CodeFenced", fr.Kind, fr.Code)
	}
	if !src.Fenced() {
		t.Error("source did not record being fenced")
	}

	// An equal-epoch follower is fine: fencing only trips on HIGHER.
	nc2, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial 2: %v", err)
	}
	defer nc2.Close()
	buf, err = wire.WriteFrame(nc2, nil, &wire.Frame{Kind: wire.KindFollow, Version: wire.Version, Epoch: 3})
	if err != nil {
		t.Fatalf("write follow 2: %v", err)
	}
	fr, _, err = wire.ReadFrame(nc2, buf)
	if err != nil {
		t.Fatalf("read ack: %v", err)
	}
	if fr.Kind != wire.KindFollowAck || fr.Epoch != 3 {
		t.Fatalf("got %v epoch %d, want FollowAck epoch 3", fr.Kind, fr.Epoch)
	}
}

// TestHandoff drives the graceful path at the repl layer: the primary
// seals its WAL, hands off, and the follower acks only after it is
// promoted and serving.
func TestHandoff(t *testing.T) {
	primaryDir := t.TempDir()
	src := repl.NewSource(repl.SourceConfig{Epoch: 0, Logf: t.Logf})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer src.Close()

	obs := src.Export("acme", primaryDir)
	prim, _, err := realloc.OpenRecovered(primaryDir,
		append(stackOptions(), realloc.WithWALObserver(obs))...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}

	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          t.TempDir(),
		NewScheduler: newFollowerSched,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "follower warm", func() bool { return fol.Stats().Warm == 1 })

	for i := 0; i < 50; i++ {
		if _, err := prim.Apply(jobs.InsertReq(fmt.Sprintf("j-%02d", i), jobs.Time(i*16), jobs.Time(i*16+8))); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	want := prim.Snapshot()

	// Seal the write path (flushes and closes the WAL: its final group
	// commits ship through the observer before Close returns), then
	// hand off.
	prim.Close()
	epoch, err := src.Handoff("planned maintenance")
	if err != nil {
		t.Fatalf("handoff: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("handoff epoch = %d, want 1", epoch)
	}
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}

	adopted := fol.Adopt("acme")
	if adopted == nil {
		t.Fatal("Adopt returned nil after handoff")
	}
	defer adopted.Close()
	sameSnapshot(t, "handoff follower", want, adopted.Snapshot())
	if got := fol.Epoch(); got != 1 {
		t.Fatalf("follower epoch = %d, want 1", got)
	}
}

// fakePrimary accepts one replication connection, answers the Follow
// handshake, runs extra (which may send more frames), and then holds
// the connection open — reading and discarding — until the peer closes
// it. It models a primary that wedges with its TCP connection alive.
func fakePrimary(t *testing.T, extra func(nc net.Conn, buf []byte)) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr, buf, err := wire.ReadFrame(nc, nil)
		if err != nil || fr.Kind != wire.KindFollow {
			return
		}
		buf, err = wire.WriteFrame(nc, buf[:0], &wire.Frame{Kind: wire.KindFollowAck, Epoch: 0})
		if err != nil {
			return
		}
		if extra != nil {
			extra(nc, buf)
		}
		io.Copy(io.Discard, nc)
	}()
	return ln.Addr()
}

// TestWedgedPrimarySelfPromote pins the in-session loss detector: a
// primary that completes the handshake and then goes silent — the TCP
// connection stays established, no FIN, no RST — must still trip
// PromoteAfter. Before heartbeats and read deadlines the follower
// blocked in ReadFrame forever and the advertised self-promotion never
// fired.
func TestWedgedPrimarySelfPromote(t *testing.T) {
	addr := fakePrimary(t, nil)
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          t.TempDir(),
		NewScheduler: newFollowerSched,
		PromoteAfter: 300 * time.Millisecond,
		RedialEvery:  20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	start := time.Now()
	if err := fol.Run(); err != nil {
		t.Fatalf("follower run: %v", err)
	}
	elapsed := time.Since(start)
	st := fol.Stats()
	if !st.Promoted {
		t.Fatalf("follower did not promote off a wedged primary: %+v", st)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("promotion off a wedged primary took %v", elapsed)
	}
	if e := fol.Epoch(); e != 1 {
		t.Fatalf("promoted epoch = %d, want 1", e)
	}
}

// TestHeartbeatKeepsIdleSessionAlive is the inverse: an idle but
// HEALTHY primary heartbeats, so a follower with a short PromoteAfter
// must NOT self-promote while the session carries pings — and must
// still promote promptly once the primary actually dies.
func TestHeartbeatKeepsIdleSessionAlive(t *testing.T) {
	primaryDir := t.TempDir()
	src := repl.NewSource(repl.SourceConfig{
		Epoch:          0,
		HeartbeatEvery: 50 * time.Millisecond,
		Logf:           t.Logf,
	})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	obs := src.Export("acme", primaryDir)
	prim, _, err := realloc.OpenRecovered(primaryDir,
		append(stackOptions(), realloc.WithWALObserver(obs))...)
	if err != nil {
		t.Fatalf("open primary: %v", err)
	}

	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          t.TempDir(),
		NewScheduler: newFollowerSched,
		PromoteAfter: 500 * time.Millisecond,
		RedialEvery:  20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "follower warm", func() bool { return fol.Stats().Warm == 1 })

	// Idle for several multiples of PromoteAfter: pings are the only
	// traffic, and they must be proof of life enough.
	select {
	case err := <-runErr:
		t.Fatalf("follower exited during idle-but-healthy primary: %v (stats %+v)", err, fol.Stats())
	case <-time.After(1500 * time.Millisecond):
	}
	if fol.Stats().Promoted {
		t.Fatalf("follower promoted off an idle but heartbeating primary: %+v", fol.Stats())
	}

	// Kill the primary for real; now the silence is genuine.
	prim.Close()
	src.Close()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run after primary death: %v", err)
	}
	if !fol.Stats().Promoted {
		t.Fatal("follower never promoted after the primary died")
	}
}

// TestPartialInstallDiscardedTombstone: a tenant whose install never
// completed is discarded at promotion — and the discard must be
// durable. The mirror directory gets a tombstone so no later recovery
// path (cmd/reallocd's OpenRecovered fallback) can silently serve the
// incomplete state.
func TestPartialInstallDiscardedTombstone(t *testing.T) {
	addr := fakePrimary(t, func(nc net.Conn, buf []byte) {
		// Begin an install but never finish it: no Installed frame.
		wire.WriteFrame(nc, buf[:0], &wire.Frame{Kind: wire.KindCheckpointInstall, Tenant: "acme"})
	})
	folDir := t.TempDir()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          folDir,
		NewScheduler: newFollowerSched,
		RedialEvery:  20 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	waitUntil(t, "install begun", func() bool { return fol.Stats().Tenants == 1 })

	fol.PromoteNow()
	if err := <-runErr; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	if fol.Adopt("acme") != nil {
		t.Fatal("partially installed tenant must not be adoptable")
	}
	dir := filepath.Join(folDir, repl.TenantDir("acme"))
	reason, ok := repl.Discarded(dir)
	if !ok {
		t.Fatalf("no promotion tombstone in %s", dir)
	}
	if !strings.Contains(reason, "install incomplete") {
		t.Fatalf("tombstone reason = %q", reason)
	}
	// An untouched directory carries no tombstone.
	if _, ok := repl.Discarded(t.TempDir()); ok {
		t.Fatal("Discarded reported a tombstone in a fresh directory")
	}
}

// TestCloseStopsBufferedFrames: Close stops the frame loop even when
// whole frames already sit in the follower's read buffer, where the
// kick's closed connection cannot reach them. An Install, a Tail and a
// Promote arrive in one write; Close lands while the Install is being
// handled, so the follower must neither ingest the Tail nor promote.
func TestCloseStopsBufferedFrames(t *testing.T) {
	addr := fakePrimary(t, func(nc net.Conn, buf []byte) {
		burst := buf[:0]
		for _, f := range []wire.Frame{
			{Kind: wire.KindCheckpointInstall, Tenant: "acme"},
			{Kind: wire.KindTail, Tenant: "acme", Seg: 1, Data: []byte{1, 2, 3, 4}},
			{Kind: wire.KindPromote, Epoch: 5},
		} {
			var err error
			if burst, err = wire.AppendFrame(burst, &f); err != nil {
				return
			}
		}
		nc.Write(burst)
	})
	folDir := t.TempDir()
	var fol *repl.Follower
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary:      addr.String(),
		Dir:          folDir,
		NewScheduler: newFollowerSched,
		RedialEvery:  20 * time.Millisecond,
		Logf: func(format string, args ...any) {
			t.Logf(format, args...)
			if strings.HasPrefix(format, "repl: installing") {
				fol.Close() // from the frame loop, while the burst is buffered
			}
		},
	})
	if err != nil {
		t.Fatalf("new follower: %v", err)
	}
	defer fol.Close()
	runErr := make(chan error, 1)
	go func() { runErr <- fol.Run() }()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("follower run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still going 10s after Close")
	}
	if st := fol.Stats(); st.Promoted {
		t.Fatalf("follower promoted after Close: %+v", st)
	}
	if e, err := repl.ReadEpoch(folDir); err != nil || e != 0 {
		t.Fatalf("persisted epoch after Close = %d, %v; want 0", e, err)
	}
	seg := wal.SegmentPath(filepath.Join(folDir, repl.TenantDir("acme")), 1)
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("the Tail after Close was ingested: %s exists (%v)", seg, err)
	}
}

// TestHandoffRefusesColdFollower pins the handoff barrier: Promote
// must never be sent to a follower that is still installing, because
// promotion would discard the in-flight tenant — including writes the
// primary already acked. The handoff has to wait for warmth and, when
// none arrives within the bound, refuse so the caller drains instead.
func TestHandoffRefusesColdFollower(t *testing.T) {
	dir := t.TempDir()
	// Fabricate a tenant WAL whose segment dwarfs any socket buffer:
	// the install cannot finish while the follower refuses to read.
	big := make([]byte, 64<<20)
	if err := os.WriteFile(wal.SegmentPath(dir, 1), big, 0o644); err != nil {
		t.Fatalf("write segment: %v", err)
	}
	src := repl.NewSource(repl.SourceConfig{
		Epoch:          0,
		WriteTimeout:   30 * time.Second,
		PromoteTimeout: 300 * time.Millisecond,
		Logf:           t.Logf,
	})
	addr, err := src.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer src.Close()
	src.Export("acme", dir)

	// A hand-rolled follower that handshakes and then stops reading,
	// wedging the snapshot transfer mid-flight.
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	buf, err := wire.WriteFrame(nc, nil, &wire.Frame{Kind: wire.KindFollow, Version: wire.Version, Epoch: 0})
	if err != nil {
		t.Fatalf("write follow: %v", err)
	}
	fr, _, err := wire.ReadFrame(nc, buf)
	if err != nil || fr.Kind != wire.KindFollowAck {
		t.Fatalf("handshake: frame %v, err %v", fr.Kind, err)
	}

	// The refusal is bounded by PromoteTimeout, not by the install's
	// WriteTimeout: polling the follower's readiness must not wait
	// behind the write it has wedged.
	start := time.Now()
	_, err = src.Handoff("test")
	if err == nil {
		t.Fatal("handoff to a cold follower must be refused")
	}
	if !strings.Contains(err.Error(), "refusing handoff") {
		t.Fatalf("refusal error = %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("refusal took %v with a %v PromoteTimeout", took, 300*time.Millisecond)
	}
}
