// The shard queue's contract as a Scheduler sees it: a full queue
// blocks the producer (backpressure) and preserves submission order, a
// deadline interrupts the park, and Close waits for a parked producer
// instead of failing it. Every test stalls the one worker (blockWorker)
// behind a 2-slot queue, so "parked" is a state the test can hold.
package shard

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/wal"
)

const testBuffer = 2

// stalledSharded builds a one-shard scheduler with a testBuffer-slot
// queue whose worker is stalled with the queue empty; release (safe to
// call twice, and called at cleanup) lets the worker go and waits for it.
func stalledSharded(t *testing.T, log *wal.Log) (s *Scheduler, release func()) {
	t.Helper()
	s = New(Config{Shards: 1, Machines: 2, Factory: stackFactory, Buffer: testBuffer, WAL: log})
	t.Cleanup(s.Close)
	gate := make(chan struct{})
	resumed := blockWorker(t, s, 0, gate)
	var once sync.Once
	release = func() {
		once.Do(func() { close(gate) })
		resumed.Wait()
	}
	t.Cleanup(release) // before Close, which waits for the worker
	waitFor(t, "the worker to pick up the stalling task", func() bool { return queued(s) == 0 && !inSend(s) })
	return s, release
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func queued(s *Scheduler) int { return len(s.workers[0].q) }

// inSend reports whether a producer is inside send. With the worker
// stalled and the queue full, a producer inside send is parked on the
// queue. The admission gate cannot tell: a request holds its shared
// side until the ack, so a queued request holds it as long as a parked
// one. The goroutine dump can, because it names every goroutine whose
// stack runs through send. No test here runs in parallel, so a
// goroutine in send belongs to s.
func inSend(s *Scheduler) bool {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Contains(buf[:n], []byte("repro/internal/shard.(*Scheduler).send("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

func waitParked(t *testing.T, s *Scheduler) {
	t.Helper()
	waitFor(t, "a producer to park on the full queue", func() bool { return queued(s) == testBuffer && inSend(s) })
}

func insertReq(i int) jobs.Request { return jobs.InsertReq(fmt.Sprintf("job-%d", i), 0, 4096) }

// TestQueueBackpressure: with the worker stalled, the request past the
// queue's capacity blocks its producer; once the worker resumes every
// request is served, in submission order. The requests carry a deadline
// far in the future, so the producer parks in send's timed wait and is
// woken by freed space, not by the timer (Apply in
// TestCloseWaitsForParkedProducer parks in the untimed one).
func TestQueueBackpressure(t *testing.T) {
	s, release := stalledSharded(t, nil)
	const n = 5
	var order []int // appended on the worker goroutine, read after served.Wait
	var served sync.WaitGroup
	served.Add(n)
	sent := make(chan int)
	go func() {
		for i := 0; i < n; i++ {
			i := i
			err := s.dispatchTimed(insertReq(i), deadlineFrom(time.Minute), func(_ metrics.Cost, err error) {
				if err != nil {
					t.Errorf("request %d: %v", i, err)
				}
				order = append(order, i)
				served.Done()
			})
			if err != nil {
				t.Errorf("dispatch %d: %v", i, err)
			}
			sent <- i
		}
	}()
	for i := 0; i < testBuffer; i++ {
		if got := <-sent; got != i {
			t.Fatalf("dispatch %d returned, want %d", got, i)
		}
	}
	waitParked(t, s)
	select {
	case i := <-sent:
		t.Fatalf("dispatch %d returned with the %d-slot queue full and the worker stalled", i, testBuffer)
	case <-time.After(20 * time.Millisecond):
	}

	release()
	for i := testBuffer; i < n; i++ {
		if got := <-sent; got != i {
			t.Fatalf("dispatch %d returned, want %d", got, i)
		}
	}
	served.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("service order %v, want submission order", order)
		}
	}
	if got := s.Active(); got != n {
		t.Fatalf("Active() = %d, want %d", got, n)
	}
}

// TestDeadlineExpiresWhileParked: a request whose deadline passes while
// its producer is parked on the full queue fails with
// ErrDeadlineExceeded without ever reaching the worker (which stays
// stalled throughout), releases its insert reservation, and under a WAL
// leaves no record.
func TestDeadlineExpiresWhileParked(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, release := stalledSharded(t, log)
	acks := make(chan error, testBuffer)
	for i := 0; i < testBuffer; i++ {
		go func(i int) {
			_, err := s.Apply(insertReq(i))
			acks <- err
		}(i)
		waitFor(t, "the request to be queued", func() bool { return queued(s) == i+1 && !inSend(s) })
	}
	late := jobs.InsertReq("late", 0, 4096)
	if _, err := s.ApplyDeadline(late, 20*time.Millisecond); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline parked on a full queue = %v, want ErrDeadlineExceeded", err)
	}
	// A deadline already past on arrival fails without parking at all.
	if _, err := s.ApplyDeadline(late, time.Nanosecond); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("ApplyDeadline already expired on a full queue = %v, want ErrDeadlineExceeded", err)
	}
	if n := queued(s); n != testBuffer {
		t.Fatalf("queue holds %d tasks after the expiries, want the %d queued before them", n, testBuffer)
	}

	release()
	for i := 0; i < testBuffer; i++ {
		if err := <-acks; err != nil {
			t.Fatalf("request queued before the expiry = %v, want served", err)
		}
	}
	if _, err := s.Apply(late); err != nil {
		t.Fatalf("re-insert after the expiry (reservation not released?): %v", err)
	}
	if got := s.Active(); got != testBuffer+1 {
		t.Fatalf("Active() = %d, want %d", got, testBuffer+1)
	}
	s.Close()

	got, err := wal.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range got.Records {
		names = append(names, r.Req.Name)
	}
	if want := []string{"job-0", "job-1", "late"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("WAL holds %v, want %v: the expired attempt must not be logged", names, want)
	}
}

// TestCloseWaitsForParkedProducer: Close racing a producer parked on
// the full queue does not fail it. Close waits, the parked request is
// served and acked like the ones queued before it, and only requests
// that arrive after Close get ErrClosed.
func TestCloseWaitsForParkedProducer(t *testing.T) {
	s, release := stalledSharded(t, nil)
	const n = testBuffer + 1
	acks := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := s.Apply(insertReq(i))
			acks <- err
		}(i)
		if i < testBuffer {
			waitFor(t, "the request to be queued", func() bool { return queued(s) == i+1 && !inSend(s) })
		}
	}
	waitParked(t, s)

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a producer was parked on the full queue")
	case err := <-acks:
		t.Fatalf("a request was acked (%v) while the worker was stalled", err)
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
	if _, err := s.Apply(insertReq(n)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
}
