// Per-request deadline semantics: a request whose deadline passes
// before a worker executes it fails with ErrDeadlineExceeded, mutates
// nothing, releases its reservation, and — under a WAL — is never
// logged (recovery has no deadlines; a logged expiry would replay as a
// phantom mutation).
package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/wal"
)

// blockWorker parks shard i's worker on a ctrl task until gate closes.
// It returns a WaitGroup that settles when the worker resumes.
func blockWorker(t *testing.T, s *Scheduler, i int, gate chan struct{}) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(1)
	err := s.send(i, task{ctrlDone: &wg, ctrl: func(sched.Scheduler, *metrics.ShardCost) { <-gate }})
	if err != nil {
		t.Fatalf("blocking ctrl send: %v", err)
	}
	return &wg
}

// TestApplyDeadlineExpiresInQueue: a request stuck behind slow work
// past its deadline is rejected un-executed, and the name is free for
// an immediate retry (the insert reservation is released).
func TestApplyDeadlineExpiresInQueue(t *testing.T) {
	s := newTestSharded(t, 1, 2)
	gate := make(chan struct{})
	wg := blockWorker(t, s, 0, gate)
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(gate)
	}()

	_, err := s.ApplyDeadline(jobs.InsertReq("late", 0, 64), 10*time.Millisecond)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline behind a stalled worker = %v, want ErrDeadlineExceeded", err)
	}
	wg.Wait()
	if n := s.Active(); n != 0 {
		t.Fatalf("Active() = %d after a deadline rejection, want 0", n)
	}
	// The reservation is gone: the same name inserts cleanly.
	if _, err := s.Apply(jobs.InsertReq("late", 0, 64)); err != nil {
		t.Fatalf("re-insert after deadline rejection: %v", err)
	}
	if n := s.Active(); n != 1 {
		t.Fatalf("Active() = %d, want 1", n)
	}
}

// TestApplyDeadlineUncontended: a generous deadline on an idle
// scheduler never trips.
func TestApplyDeadlineUncontended(t *testing.T) {
	s := newTestSharded(t, 2, 4)
	for i := 0; i < 32; i++ {
		r := jobs.InsertReq(string(rune('a'+i)), 0, 4096)
		if _, err := s.ApplyDeadline(r, time.Second); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if n := s.Active(); n != 32 {
		t.Fatalf("Active() = %d, want 32", n)
	}
}

// TestDeadlineExpiryNotLogged: under a WAL, a deadline-expired request
// leaves no record — replaying the log after the run must reproduce
// exactly the successful requests.
func TestDeadlineExpiryNotLogged(t *testing.T) {
	dir := t.TempDir()
	log, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty {
		t.Fatal("fresh WAL dir not empty")
	}
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, WAL: log})

	if _, err := s.Apply(jobs.InsertReq("kept", 0, 64)); err != nil {
		t.Fatalf("insert kept: %v", err)
	}
	gate := make(chan struct{})
	wg := blockWorker(t, s, 0, gate)
	go func() {
		time.Sleep(40 * time.Millisecond)
		close(gate)
	}()
	if _, err := s.ApplyDeadline(jobs.InsertReq("expired", 0, 64), 5*time.Millisecond); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline = %v, want ErrDeadlineExceeded", err)
	}
	wg.Wait()
	s.Close()

	got, err := wal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range got.Records {
		switch r.Kind {
		case wal.KindRequest:
			names = append(names, r.Req.Name)
		case wal.KindBatch:
			for _, q := range r.Batch {
				names = append(names, q.Name)
			}
		}
	}
	if len(names) != 1 || names[0] != "kept" {
		t.Fatalf("WAL holds %v, want exactly [kept]: the expired request must not be logged", names)
	}
}
