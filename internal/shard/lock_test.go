// The shard lock's contract as a Scheduler sees it: a request on a
// shard whose lock is held waits (backpressure) and the waiters run in
// arrival order, Close waits for a waiter instead of failing it, and a
// held lock on one shard does not stop another. Every test holds a
// shard's lock itself (holdLock), so "waiting" is a state the test can
// hold.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
	sh.lock()
	var once sync.Once
	release = func() { once.Do(sh.unlock) }
	t.Cleanup(release)
	return release
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// waiters counts the goroutines parked on a shard lock. The admission
// gate cannot tell: a request holds its shared side until its ack,
// whether it waits or executes. The goroutine dump can, because it names
// every goroutine whose stack runs through the lock, and its state: a
// request still polling the lock is runnable, one parked on it sits in
// a channel send. Only parked waiters hold a place in the arrival
// order, so only they count. No test here runs in parallel, so every
// such goroutine belongs to the test.
func waiters() int {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			parked := 0
			for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
				head, _, _ := bytes.Cut(g, []byte("\n"))
				if bytes.Contains(g, []byte("repro/internal/shard.(*shard).lock(")) &&
					bytes.Contains(head, []byte("[chan send")) {
					parked++
				}
			}
			return parked
		}
		buf = make([]byte, 2*len(buf))
	}
}

// applyWaiting starts one Apply per request on its own goroutine, each
// only once the one before it is parked on the held lock, so the
// waiters queue in slice order. Each outcome lands on the returned channel.
func applyWaiting(t *testing.T, s *Scheduler, reqs []jobs.Request) <-chan error {
	t.Helper()
	acks := make(chan error, len(reqs))
	for i, r := range reqs {
		go func() {
			_, err := s.Apply(r)
			acks <- err
		}()
		waitFor(t, "the request to wait for the shard lock", func() bool { return waiters() == i+1 })
	}
	return acks
}

func insertReqs(n int) []jobs.Request {
	reqs := make([]jobs.Request, n)
	for i := range reqs {
		reqs[i] = jobs.InsertReq(fmt.Sprintf("job-%d", i), 0, 4096)
	}
	return reqs
}

// loggedNames returns the request names of dir's log, in log order.
func loggedNames(t *testing.T, dir string) []string {
	t.Helper()
	got, err := wal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range got.Records {
		names = append(names, r.Req.Name)
	}
	return names
}

func openLog(t *testing.T) (string, *wal.Log) {
	t.Helper()
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dir, log
}

// TestLockBackpressure: with a shard's lock held, a request on that
// shard waits; once the lock is released every waiting request is
// served, in arrival order, and logged in that order.
func TestLockBackpressure(t *testing.T) {
	dir, log := openLog(t)
	s := New(Config{Shards: 1, Machines: 2, Factory: stackFactory, WAL: log})
	t.Cleanup(s.Close)
	release := holdLock(t, s, 0)
	const n = 5
	acks := applyWaiting(t, s, insertReqs(n))
	select {
	case err := <-acks:
		t.Fatalf("a request returned (%v) while its shard's lock was held", err)
	case <-time.After(20 * time.Millisecond):
	}

	release()
	for i := 0; i < n; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("request waiting for the lock = %v, want served", err)
		}
	}
	if got := s.Active(); got != n {
		t.Fatalf("Active() = %d, want %d", got, n)
	}
	s.Close()
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("job-%d", i)
	}
	if got := loggedNames(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("WAL holds %v, want arrival order %v", got, want)
	}
}

// TestCloseWaitsForParkedProducer: Close racing requests that wait for
// a held shard lock does not fail them. Close waits, the waiters are
// served and acked, and only requests that arrive after Close get
// ErrClosed.
func TestCloseWaitsForParkedProducer(t *testing.T) {
	s := newTestSharded(t, 1, 2)
	release := holdLock(t, s, 0)
	const n = 3
	acks := applyWaiting(t, s, insertReqs(n))

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while requests waited for a shard lock")
	case err := <-acks:
		t.Fatalf("a request was acked (%v) while its shard's lock was held", err)
	case <-time.After(20 * time.Millisecond):
	}

	release()
	for i := 0; i < n; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("request accepted before Close = %v, want served", err)
		}
	}
	<-closed
	if got := s.Active(); got != n {
		t.Fatalf("Active() = %d, want %d", got, n)
	}
	if _, err := s.Apply(jobs.InsertReq("after", 0, 4096)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
}

// TestShardsRunOnTheirCallers: a scheduler starts no goroutine, with a
// WAL or without one, and with shard 0's lock held a request routed to
// shard 1 still completes while one routed to shard 0 waits.
func TestShardsRunOnTheirCallers(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(Config{Shards: 2, Machines: 4, Factory: stackFactory,
		Policy: PolicyFunc(func(name string, _ int) int {
			if strings.HasPrefix(name, "one-") {
				return 1
			}
			return 0
		})})
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("New started %d goroutine(s)", got-before)
	}
	t.Cleanup(s.Close)
	release := holdLock(t, s, 0)
	acks := applyWaiting(t, s, []jobs.Request{jobs.InsertReq("zero-a", 0, 4096)})
	if _, err := s.Apply(jobs.InsertReq("one-a", 0, 4096)); err != nil {
		t.Fatalf("insert on shard 1 with shard 0's lock held: %v", err)
	}
	if got := s.Active(); got != 1 {
		t.Fatalf("Active() = %d with shard 0's lock held, want shard 1's one job", got)
	}
	release()
	if err := <-acks; err != nil {
		t.Fatalf("insert on shard 0 after its lock was released: %v", err)
	}
	s.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutine(s) left after Close", got-before)
	}

	// A logged scheduler commits on its callers too: opening the log,
	// New, Apply (which writes a group commit), Checkpoint and Close
	// start no goroutine.
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := New(Config{Shards: 2, Machines: 4, Factory: stackFactory, WAL: log})
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("wal.Open and New of a logged scheduler started %d goroutine(s)", got-before)
	}
	if _, err := ls.Apply(jobs.InsertReq("logged", 0, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Apply(jobs.DeleteReq("logged")); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("a logged Apply left %d goroutine(s) running", got-before)
	}
	ls.Close()
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutine(s) left after a logged scheduler's Close", got-before)
	}
	if got := loggedNames(t, dir); fmt.Sprint(got) != "[logged]" {
		t.Fatalf("WAL tail holds %v, want the delete after the checkpoint", got)
	}
}
