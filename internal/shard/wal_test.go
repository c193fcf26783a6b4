// Durability tests for the sharded front-end: checkpoint restoration
// and the Checkpoint-vs-traffic race (the "restore-vs-submit" family).
package shard

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/wal"
)

// jobSet renders a sorted "name window" list for set comparison.
func jobSet(js []jobs.Job) []string {
	out := make([]string, 0, len(js))
	for _, j := range js {
		out = append(out, fmt.Sprintf("%s %v", j.Name, j.Window))
	}
	sort.Strings(out)
	return out
}

func equalJobSets(t *testing.T, got, want []jobs.Job) {
	t.Helper()
	g, w := jobSet(got), jobSet(want)
	if len(g) != len(w) {
		t.Fatalf("job sets differ: %d vs %d jobs", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("job sets differ at %d: %q vs %q", i, g[i], w[i])
		}
	}
}

// TestRestoreFromCheckpoint: a checkpointed image restores into a
// scheduler with the identical job set, the identical machine-range
// partition, the identical job→shard locality, a feasible schedule,
// and consistent routing bookkeeping.
func TestRestoreFromCheckpoint(t *testing.T) {
	s := newElasticSharded(t, 3, 7) // uneven partition: 3,2,2
	for i := 0; i < 60; i++ {
		name := fmt.Sprintf("job-%03d", i)
		if _, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: 0, End: 4096}}); err != nil {
			t.Fatalf("insert %s: %v", name, err)
		}
	}
	for i := 0; i < 60; i += 3 {
		if _, err := s.Delete(fmt.Sprintf("job-%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	ck := &wal.Checkpoint{
		ShardMachines: snap.ShardMachines,
		Jobs:          snap.Jobs,
		Assignment:    snap.Assignment,
	}

	r, err := Restore(Config{Factory: elasticStackFactory}, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rsnap := r.Snapshot()
	equalJobSets(t, rsnap.Jobs, snap.Jobs)
	if rsnap.Machines != snap.Machines {
		t.Fatalf("restored %d machines, want %d", rsnap.Machines, snap.Machines)
	}
	if len(rsnap.ShardMachines) != len(snap.ShardMachines) {
		t.Fatalf("restored %d shards, want %d", len(rsnap.ShardMachines), len(snap.ShardMachines))
	}
	for i := range snap.ShardMachines {
		if rsnap.ShardMachines[i] != snap.ShardMachines[i] {
			t.Fatalf("shard %d restored with %d machines, want %d", i, rsnap.ShardMachines[i], snap.ShardMachines[i])
		}
	}
	if err := feasible.VerifySchedule(rsnap.Jobs, rsnap.Assignment, rsnap.Machines); err != nil {
		t.Fatalf("restored schedule infeasible: %v", err)
	}
	if err := r.SelfCheck(); err != nil {
		t.Fatalf("restored self-check: %v", err)
	}
	// Job→shard locality: each job's restored machine lies in the same
	// shard's range as its checkpointed machine.
	shardOf := func(machine int) int {
		si, err := shardOfMachine(snap.ShardMachines, machine)
		if err != nil {
			t.Fatal(err)
		}
		return si
	}
	for name, pl := range snap.Assignment {
		rpl, ok := rsnap.Assignment[name]
		if !ok {
			t.Fatalf("job %q lost by restore", name)
		}
		if shardOf(pl.Machine) != shardOf(rpl.Machine) {
			t.Errorf("job %q moved from shard %d to shard %d across restore",
				name, shardOf(pl.Machine), shardOf(rpl.Machine))
		}
	}
	// The restored scheduler keeps serving.
	if _, err := r.Insert(jobs.Job{Name: "post-restore", Window: jobs.Window{Start: 0, End: 4096}}); err != nil {
		t.Fatalf("post-restore insert: %v", err)
	}
	if _, err := r.Delete("job-001"); err != nil {
		t.Fatalf("post-restore delete: %v", err)
	}
}

// TestRestoreIsDeterministic: two restores of one image are
// assignment-identical.
func TestRestoreIsDeterministic(t *testing.T) {
	s := newElasticSharded(t, 2, 4)
	for i := 0; i < 40; i++ {
		if _, err := s.Insert(jobs.Job{Name: fmt.Sprintf("d%02d", i), Window: jobs.Window{Start: 0, End: 2048}}); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	ck := &wal.Checkpoint{ShardMachines: snap.ShardMachines, Jobs: snap.Jobs, Assignment: snap.Assignment}
	a, err := Restore(Config{Factory: elasticStackFactory}, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Restore(Config{Factory: elasticStackFactory}, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	asnA, asnB := a.Snapshot().Assignment, b.Snapshot().Assignment
	if len(asnA) != len(asnB) {
		t.Fatalf("restores disagree on job count: %d vs %d", len(asnA), len(asnB))
	}
	for name, pa := range asnA {
		if pb, ok := asnB[name]; !ok || pa != pb {
			t.Fatalf("restores disagree on %q: %+v vs %+v", name, pa, asnB[name])
		}
	}
}

// TestRestoreConfigMismatch: a config contradicting the checkpoint's
// partition is an error, not a silent re-partition.
func TestRestoreConfigMismatch(t *testing.T) {
	ck := &wal.Checkpoint{
		ShardMachines: []int{2, 2},
		Assignment:    jobs.Assignment{},
	}
	if _, err := Restore(Config{Shards: 3, Factory: elasticStackFactory}, ck); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if _, err := Restore(Config{Machines: 7, Factory: elasticStackFactory}, ck); err == nil {
		t.Fatal("machine-count mismatch accepted")
	}
	if _, err := Restore(Config{Factory: elasticStackFactory}, nil); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
}

// TestCheckpointRacesSubmitAndResize is the restore-vs-submit race
// test: Checkpoint() runs repeatedly while Apply, ApplyBatch, and
// Resize traffic is in flight from concurrent goroutines. Every checkpoint written must be a
// consistent point-in-time image — every job placed, every placement
// inside the checkpointed machine range, feasible as a schedule — and
// the final checkpoint must restore to exactly the final job set.
// Run with -race (CI does).
func TestCheckpointRacesSubmitAndResize(t *testing.T) {
	dir := t.TempDir()
	log, recovered, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Empty {
		t.Fatal("fresh dir not empty")
	}
	s := New(Config{Shards: 4, Machines: 8, Factory: elasticStackFactory, WAL: log})

	const mutators = 4
	per := 150
	if testing.Short() {
		per = 40
	}
	var wg sync.WaitGroup
	var resizes atomic.Int32
	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				name := fmt.Sprintf("c%d-%04d", g, i)
				switch i % 3 {
				case 0:
					if _, err := s.Apply(jobs.InsertReq(name, 0, 4096)); err != nil {
						t.Errorf("apply %s: %v", name, err)
						return
					}
				case 1:
					batch := []jobs.Request{
						jobs.InsertReq(name+"-a", 0, 2048),
						jobs.InsertReq(name+"-b", 2048, 4096),
						jobs.DeleteReq(name + "-a"),
					}
					if _, err := s.ApplyBatch(batch); err != nil {
						t.Errorf("batch %s: %v", name, err)
						return
					}
				case 2:
					if _, err := s.Insert(jobs.Job{Name: name, Window: jobs.Window{Start: 0, End: 4096}}); err != nil {
						t.Errorf("insert %s: %v", name, err)
						return
					}
					if g == 0 && i%15 == 2 {
						if _, err := s.Resize(8 + int(resizes.Add(1))%4); err != nil {
							t.Errorf("resize: %v", err)
							return
						}
					}
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	checkpoints := 0
	for {
		select {
		case <-done:
			if checkpoints == 0 {
				t.Fatal("no checkpoint raced the mutators")
			}
			goto settled
		default:
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("checkpoint under load: %v", err)
			}
			checkpoints++
			rec, err := wal.Read(dir)
			if err != nil {
				t.Fatalf("reading checkpoint %d: %v", checkpoints, err)
			}
			ck := rec.Checkpoint
			if ck == nil {
				t.Fatal("checkpoint record missing after Checkpoint()")
			}
			if len(ck.Jobs) != len(ck.Assignment) {
				t.Fatalf("checkpoint tore: %d jobs, %d placements", len(ck.Jobs), len(ck.Assignment))
			}
			if err := feasible.VerifySchedule(ck.Jobs, ck.Assignment, ck.Machines()); err != nil {
				t.Fatalf("checkpoint %d not a feasible point-in-time image: %v", checkpoints, err)
			}
		}
	}
settled:
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	finalSnap := s.Snapshot()
	s.Close()

	rec, err := wal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(Config{Factory: elasticStackFactory}, rec.Checkpoint)
	if err != nil {
		t.Fatalf("restoring final checkpoint: %v", err)
	}
	defer r.Close()
	rsnap := r.Snapshot()
	equalJobSets(t, rsnap.Jobs, finalSnap.Jobs)
	if err := feasible.VerifySchedule(rsnap.Jobs, rsnap.Assignment, rsnap.Machines); err != nil {
		t.Fatalf("restored final image infeasible: %v", err)
	}
	if err := r.SelfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestReplay: Replay applies each record kind through the admission
// path that wrote it and counts rejections without stopping, and it
// refuses — applying nothing, appending nothing — once a WAL is
// attached.
func TestReplay(t *testing.T) {
	s := newElasticSharded(t, 2, 4)
	ins := func(name string) jobs.Request { return jobs.InsertReq(name, 0, 4096) }
	for _, tc := range []struct {
		what       string
		rec        wal.Record
		wantFailed int
	}{
		{"request", wal.RequestRecord(ins("a")), 0},
		{"duplicate request", wal.RequestRecord(ins("a")), 1},
		{"batch with a duplicate and an unknown delete", wal.BatchRecord([]jobs.Request{ins("b"), ins("a"), jobs.DeleteReq("zz"), jobs.DeleteReq("a")}), 2},
		{"pool resize", wal.ResizeRecord(-1, 0, 6), 0},
		{"shard resize", wal.ResizeRecord(1, -1, 0), 0},
		{"rejected resize", wal.ResizeRecord(-1, 0, 1), 1},
	} {
		failed, err := s.Replay(tc.rec)
		if err != nil || failed != tc.wantFailed {
			t.Fatalf("Replay(%s) = %d failed, %v; want %d, nil", tc.what, failed, err, tc.wantFailed)
		}
	}
	if got, want := jobSet(s.Jobs()), []string{"b [0,4096)"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("jobs after replay = %v, want %v", got, want)
	}
	if got := s.Machines(); got != 5 {
		t.Fatalf("Machines() = %d after replaying 4 -> 6 -> shard 1 minus one, want 5", got)
	}
	if _, err := s.Replay(wal.Record{Kind: 99}); err == nil {
		t.Fatal("Replay accepted an unknown record kind")
	}

	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(log)
	if _, err := s.Replay(wal.RequestRecord(ins("c"))); err == nil {
		t.Fatal("Replay with a WAL attached did not refuse")
	}
	if got := s.Active(); got != 1 {
		t.Fatalf("Active() = %d after a refused Replay, want 1", got)
	}
	s.Close()
	if got, err := wal.Read(dir); err != nil || len(got.Records) != 0 {
		t.Fatalf("WAL after a refused Replay: %d records, %v; want none", len(got.Records), err)
	}
}
