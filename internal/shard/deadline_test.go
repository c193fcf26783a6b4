// Per-request deadline semantics: a request whose deadline passes
// before it starts executing fails with ErrDeadlineExceeded, mutates
// nothing, releases its reservation, and — under a WAL — is never
// logged (recovery has no deadlines; a logged expiry would replay as a
// phantom mutation).
package shard

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/wal"
)

// holdLock takes shard i's lock, as a request executing there would,
// and returns the function that releases it. The release is safe to
// call twice and also runs at cleanup, before an earlier-registered
// Close, which waits for every request blocked behind the lock.
func holdLock(t *testing.T, s *Scheduler, i int) (release func()) {
	t.Helper()
	sh := s.shards[i]
	sh.lock(0)
	var once sync.Once
	release = func() { once.Do(sh.unlock) }
	t.Cleanup(release)
	return release
}

// TestApplyDeadlineExpiresBehindLock: a request stuck behind slow work
// on its shard past its deadline is rejected un-executed, and the name
// is free for an immediate retry (the insert reservation is released).
func TestApplyDeadlineExpiresBehindLock(t *testing.T) {
	s := newTestSharded(t, 1, 2)
	release := holdLock(t, s, 0)

	_, err := s.ApplyDeadline(jobs.InsertReq("late", 0, 64), 10*time.Millisecond)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline behind a held shard lock = %v, want ErrDeadlineExceeded", err)
	}
	release()
	// A deadline that passes by the time a free lock is taken rejects
	// the request too, under the lock, and counts it as a failure.
	if _, err := s.ApplyDeadline(jobs.InsertReq("late", 0, 64), time.Nanosecond); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline expired on a free shard lock = %v, want ErrDeadlineExceeded", err)
	}
	if st := s.Report().Shards[0]; st.Requests != 1 || st.Failures != 1 {
		t.Fatalf("shard report %+v, want the one expired request counted as a failure", st)
	}
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

// TestApplyDeadlineBeyondClockRange: a timeout too large to add to the
// clock means no deadline, not one already in the past.
func TestApplyDeadlineBeyondClockRange(t *testing.T) {
	s := newTestSharded(t, 2, 4)
	if _, err := s.ApplyDeadline(jobs.InsertReq("far", 0, 64), time.Duration(math.MaxInt64)); err != nil {
		t.Fatalf("ApplyDeadline with the largest timeout = %v, want success", err)
	}
	if n := s.Active(); n != 1 {
		t.Fatalf("Active() = %d, want 1", n)
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
	release := holdLock(t, s, 0)
	if _, err := s.ApplyDeadline(jobs.InsertReq("expired", 0, 64), 5*time.Millisecond); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline = %v, want ErrDeadlineExceeded", err)
	}
	release()
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

// TestDeadlineShorterThanPollBudget: behind a held shard lock, a
// deadline that passes while the request still polls the lock (before
// it would park) fails with ErrDeadlineExceeded just like one that
// passes while it is parked: nothing executes, the reservation is
// released and no record is logged. Run with -cpu 1,2 to cover both
// the polling path and the one-P path, which parks at once.
func TestDeadlineShorterThanPollBudget(t *testing.T) {
	dir, log := openLog(t)
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, WAL: log})
	t.Cleanup(s.Close)
	release := holdLock(t, s, 0)
	for _, timeout := range []time.Duration{pollBudget / 5, pollBudget / 2, pollBudget - time.Microsecond} {
		if _, err := s.ApplyDeadline(jobs.InsertReq("brief", 0, 64), timeout); !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("ApplyDeadline(%v) behind a held shard lock = %v, want ErrDeadlineExceeded", timeout, err)
		}
	}
	release()
	if st := s.Report().Shards[0]; st.Requests != 0 || st.Batches != 0 {
		t.Fatalf("shard report %+v, want no request executed", st)
	}
	if _, err := s.Apply(jobs.InsertReq("brief", 0, 64)); err != nil {
		t.Fatalf("re-insert after the expiries (reservation not released?): %v", err)
	}
	s.Close()
	if got := loggedNames(t, dir); fmt.Sprint(got) != "[brief]" {
		t.Fatalf("WAL holds %v, want only the served insert: an expired attempt must not be logged", got)
	}
}
