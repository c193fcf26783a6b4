package wal

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/jobs"
)

// TestEnqueueCloseNeverDropsCallback pins the close-boundary ack
// guarantee: with many goroutines enqueueing while another calls
// Close, every Enqueue has exactly one outcome — a ticket whose record
// is written exactly once and whose Wait returns nil, or ErrClosed (the
// append lost the race and the write never happened). A lost record
// behind a nil Wait, or a record on disk twice, is a lost or phantom
// ack at the server's ack-after-durability boundary. Half the
// producers wait for each ticket at once; the other half wait only
// after enqueueing all of theirs, so Close finds tickets pending and
// must write them. Run with -race.
func TestEnqueueCloseNeverDropsCallback(t *testing.T) {
	const (
		producers = 8
		perProd   = 200
		rounds    = 20
	)
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}

		var (
			outcomes [producers * perProd]atomic.Int32 // 1 = acked, 2 = ErrClosed
			accepted atomic.Int64
			tickets  sync.Map // Ticket -> request id
			wg       sync.WaitGroup
		)
		start := make(chan struct{})
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				<-start
				held := make(map[Ticket]int)
				wait := func(tk Ticket, id int) {
					if err := l.Wait(tk); err != nil {
						t.Errorf("req %d: Wait = %v, want nil for a ticketed record", id, err)
						return
					}
					outcomes[id].Add(1)
					accepted.Add(1)
				}
				for i := 0; i < perProd; i++ {
					id := p*perProd + i
					rec := RequestRecord(jobs.InsertReq(fmt.Sprintf("j%d", id), 0, 64))
					tk, err := l.Enqueue(rec)
					switch {
					case errors.Is(err, ErrClosed):
						outcomes[id].Add(2)
						continue
					case err != nil:
						t.Errorf("req %d: unexpected Enqueue error: %v", id, err)
						continue
					}
					if prev, dup := tickets.LoadOrStore(tk, id); dup {
						t.Errorf("req %d got ticket %d, already issued to req %d", id, tk, prev)
					}
					if p%2 == 0 {
						wait(tk, id)
					} else {
						held[tk] = id
					}
				}
				for tk, id := range held {
					wait(tk, id)
				}
			}(p)
		}
		closed := make(chan struct{})
		go func() {
			<-start
			if err := l.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			close(closed)
		}()
		close(start)
		wg.Wait()
		<-closed

		for id := range outcomes {
			if n := outcomes[id].Load(); n != 1 && n != 2 {
				t.Fatalf("round %d: req %d: outcome code %d, want exactly one ack or one ErrClosed", round, id, n)
			}
		}

		// Every acked record must be on disk exactly once: the ack is
		// the durability promise, and a rejected append never happened.
		got, err := Read(dir)
		if err != nil {
			t.Fatalf("round %d: re-reading log: %v", round, err)
		}
		if n := int64(got.Requests()); n != accepted.Load() {
			t.Fatalf("round %d: %d records on disk, but %d acks reported success",
				round, n, accepted.Load())
		}
		seen := make(map[string]bool)
		for _, r := range got.Records {
			var id int
			if _, err := fmt.Sscanf(r.Req.Name, "j%d", &id); err != nil || outcomes[id].Load() != 1 {
				t.Fatalf("round %d: record %q on disk without a successful ack", round, r.Req.Name)
			}
			if seen[r.Req.Name] {
				t.Fatalf("round %d: record %q written twice", round, r.Req.Name)
			}
			seen[r.Req.Name] = true
		}
	}
}

// TestCloseIdempotentReportsWriteError pins that a second (or
// concurrent) Close reports the same sticky write failure as the
// first, instead of masking it with nil.
func TestCloseIdempotentReportsWriteError(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the segment file so the group commit's write fails.
	l.f.Close()
	werr := l.Append(RequestRecord(jobs.InsertReq("x", 0, 8)))
	if werr == nil {
		t.Fatal("append to a closed file unexpectedly succeeded")
	}
	first := l.Close()
	second := l.Close()
	if first == nil || second == nil {
		t.Fatalf("Close() = %v then %v, want the sticky write error from both", first, second)
	}
}
