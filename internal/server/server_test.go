// End-to-end tests for the reallocd front-end, driven through the real
// client over loopback TCP: tenant isolation, feasibility of the
// served schedules, explicit overload rejection, deadline expiry, and
// races between tenant creation, submission, and graceful shutdown.
//
// (Test files are free to import repro and repro/client; the layering
// gate covers only non-test sources.)
package server_test

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	realloc "repro"
	"repro/client"
	"repro/internal/feasible"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
	"repro/internal/wire"
)

func newScheduler(string) (*shard.Scheduler, error) {
	return realloc.NewSharded(realloc.WithShards(2), realloc.WithMachines(8)), nil
}

func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	if cfg.NewScheduler == nil {
		cfg.NewScheduler = newScheduler
	}
	s, err := server.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *server.Server, tenant string) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String(), tenant)
	if err != nil {
		t.Fatalf("dial tenant %q: %v", tenant, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// verifySnapshot checks a client-side snapshot with the same oracle
// the in-process tests use.
func verifySnapshot(t *testing.T, snap client.Snapshot) {
	t.Helper()
	js := make([]jobs.Job, 0, len(snap.Jobs))
	asn := make(jobs.Assignment, len(snap.Jobs))
	for _, pj := range snap.Jobs {
		js = append(js, pj.Job)
		asn[pj.Job.Name] = pj.Placement
	}
	if err := feasible.VerifySchedule(js, asn, snap.Machines); err != nil {
		t.Fatalf("served schedule infeasible: %v", err)
	}
}

// TestServerTwoTenantsE2E: two tenants submit concurrently — including
// IDENTICAL job names — and each ends up with its own feasible
// schedule containing exactly its own jobs.
func TestServerTwoTenantsE2E(t *testing.T) {
	s := startServer(t, server.Config{})
	const perTenant = 64

	var wg sync.WaitGroup
	clients := make(map[string]*client.Client)
	for _, tenant := range []string{"acme", "globex"} {
		clients[tenant] = dial(t, s, tenant)
	}
	for tenant, c := range clients {
		wg.Add(1)
		go func(tenant string, c *client.Client) {
			defer wg.Done()
			// Pipelined inserts: both tenants use the same names, which
			// only works if their namespaces are really separate.
			pend := make([]*client.Pending, 0, perTenant)
			for i := 0; i < perTenant; i++ {
				start := int64(i%16) * 64
				p, err := c.SubmitAsync(jobs.InsertReq(fmt.Sprintf("job-%03d", i), start, start+64), 0)
				if err != nil {
					t.Errorf("%s: submit %d: %v", tenant, i, err)
					return
				}
				pend = append(pend, p)
			}
			for i, p := range pend {
				if err := p.Wait(); err != nil {
					t.Errorf("%s: insert %d rejected: %v", tenant, i, err)
				}
			}
			// Delete a slice of them synchronously.
			for i := 0; i < perTenant/4; i++ {
				if err := c.Submit(jobs.DeleteReq(fmt.Sprintf("job-%03d", i*4))); err != nil {
					t.Errorf("%s: delete %d: %v", tenant, i*4, err)
				}
			}
		}(tenant, c)
	}
	wg.Wait()

	for tenant, c := range clients {
		if err := c.Drain(); err != nil {
			t.Fatalf("%s: drain: %v", tenant, err)
		}
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", tenant, err)
		}
		want := perTenant - perTenant/4
		if len(snap.Jobs) != want {
			t.Fatalf("%s: snapshot holds %d jobs, want %d", tenant, len(snap.Jobs), want)
		}
		verifySnapshot(t, snap)
	}
}

// TestServerDrainBarrier pins the wire Drain barrier: a Drain sent
// after N pipelined requests on one connection is acked only once all
// N are acked, and its code is OK. Closing the client right after Drain
// returns fails every ack still outstanding, so a Pending that Drain
// overtook would read ErrClosed instead of its verdict.
func TestServerDrainBarrier(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dial(t, s, "acme")

	const n = 128
	pend := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		start := int64(i%32) * 64
		p, err := c.SubmitAsync(jobs.InsertReq(fmt.Sprintf("job-%03d", i), start, start+64), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pend = append(pend, p)
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain ack = %v, want OK", err)
	}
	c.Close()
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("request %d after the drain ack = %v, want an OK ack that preceded it", i, err)
		}
	}
}

// TestServerSnapshotAfterPipelinedSubmits: the reader answers a
// Snapshot itself, once every request admitted ahead of it on the
// connection is served, so a Snapshot pipelined right behind N
// SubmitAsync calls reflects all N.
func TestServerSnapshotAfterPipelinedSubmits(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dial(t, s, "acme")

	const n = 64
	pend := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.SubmitAsync(jobs.InsertReq(fmt.Sprintf("job-%03d", i), 0, 4096), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pend = append(pend, p)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(snap.Jobs) != n {
		t.Fatalf("snapshot pipelined behind %d submits holds %d jobs, want all %d", n, len(snap.Jobs), n)
	}
	for i, p := range pend {
		if err := p.Wait(); err != nil {
			t.Fatalf("request %d = %v, want OK", i, err)
		}
	}
	verifySnapshot(t, snap)
}

// TestServerBatchAndResize: the batch frame reports per-request
// verdicts index-aligned, and a resize reshapes the pool visibly.
func TestServerBatchAndResize(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dial(t, s, "acme")

	reqs := []jobs.Request{
		jobs.InsertReq("a", 0, 64),
		jobs.InsertReq("b", 0, 64),
		jobs.DeleteReq("nonexistent"),
		jobs.InsertReq("c", 64, 128),
	}
	errs, err := c.Batch(reqs, 0)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, e := range errs {
		if i == 2 {
			if !errors.Is(e, client.ErrUnknownJob) {
				t.Fatalf("batch[2] = %v, want ErrUnknownJob", e)
			}
			continue
		}
		if e != nil {
			t.Fatalf("batch[%d] = %v, want nil", i, e)
		}
	}

	if err := c.Resize(16); err != nil {
		t.Fatalf("resize: %v", err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if snap.Machines != 16 {
		t.Fatalf("machines after resize = %d, want 16", snap.Machines)
	}
	if len(snap.Jobs) != 3 {
		t.Fatalf("snapshot holds %d jobs, want 3", len(snap.Jobs))
	}
	verifySnapshot(t, snap)
}

// TestServerOverloadExplicit: a batch larger than the tenant's
// inflight budget is rejected with an explicit overload verdict on
// every member — never queued, never silently dropped.
func TestServerOverloadExplicit(t *testing.T) {
	s := startServer(t, server.Config{MaxInflight: 4})
	c := dial(t, s, "acme")

	reqs := make([]jobs.Request, 8) // 8 > budget of 4
	for i := range reqs {
		reqs[i] = jobs.InsertReq(fmt.Sprintf("burst-%d", i), 0, 64)
	}
	errs, err := c.Batch(reqs, 0)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, e := range errs {
		if !errors.Is(e, client.ErrOverload) {
			t.Fatalf("batch[%d] = %v, want ErrOverload", i, e)
		}
	}
	// The rejection refunded the budget: a fitting batch now succeeds.
	errs, err = c.Batch(reqs[:4], 0)
	if err != nil {
		t.Fatalf("retry batch: %v", err)
	}
	for i, e := range errs {
		if e != nil {
			t.Fatalf("retry batch[%d] = %v, want nil", i, e)
		}
	}
	if err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServerOverloadBurst: an open-loop pipelined burst against a tiny
// budget yields only OK and ErrOverload verdicts — and exactly one
// verdict per request (no lost acks).
func TestServerOverloadBurst(t *testing.T) {
	s := startServer(t, server.Config{MaxInflight: 2})
	c := dial(t, s, "acme")

	const n = 256
	pend := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.SubmitAsync(jobs.InsertReq(fmt.Sprintf("b-%03d", i), int64(i%8)*64, int64(i%8)*64+64), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pend = append(pend, p)
	}
	var ok, over int
	for i, p := range pend {
		switch err := p.Wait(); {
		case err == nil:
			ok++
		case errors.Is(err, client.ErrOverload):
			over++
		default:
			t.Fatalf("submit %d: unexpected verdict %v", i, err)
		}
	}
	if ok+over != n {
		t.Fatalf("verdicts %d+%d != %d submits", ok, over, n)
	}
	if ok == 0 {
		t.Fatal("no submit succeeded under overload")
	}
	t.Logf("burst: %d ok, %d overloaded", ok, over)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != ok {
		t.Fatalf("snapshot holds %d jobs but %d submits were acked ok", len(snap.Jobs), ok)
	}
	verifySnapshot(t, snap)
}

// TestServerDeadlineExpiry: a request that waits out its deadline
// queued behind the tenant's other work is rejected un-executed with the
// deadline verdict. Other connections of the same tenant keep the
// tenant's serve lock busy with Batch frames while the first submits
// with a short deadline, so the expiry comes from real queueing, not
// from the clock's resolution. The tenant is logged: an expired request
// is absent from the schedule and no WAL record names it.
func TestServerDeadlineExpiry(t *testing.T) {
	dir := t.TempDir()
	const (
		busyConns = 3
		half      = 2048 // busy jobs per batch frame
	)
	s := startServer(t, server.Config{
		NewScheduler: func(tenant string) (*shard.Scheduler, error) {
			return realloc.NewSharded(realloc.WithShards(2), realloc.WithMachines(8),
				realloc.WithWAL(filepath.Join(dir, tenant))), nil
		},
		// A whole busy frame runs as one ApplyBatch under the tenant
		// lock, and the probe is still admitted beside them all.
		BatchLimit:  2 * half,
		MaxInflight: 2*half*busyConns + 1,
	})
	c := dial(t, s, "acme")

	// Each busy frame inserts half jobs and deletes them again, so it
	// holds the tenant lock for milliseconds and leaves no job behind.
	// With several busy connections one of them nearly always holds or
	// waits for the lock while the others decode their next frame, on
	// one P too, where only preemption runs the probe's reader beside
	// a batch.
	stop := make(chan struct{})
	busyErr := make(chan error, busyConns)
	for b := 0; b < busyConns; b++ {
		busy := dial(t, s, "acme")
		batch := make([]jobs.Request, 0, 2*half)
		for i := 0; i < half; i++ {
			batch = append(batch, jobs.InsertReq(fmt.Sprintf("busy-%d-%d", b, i), 0, 1<<16))
		}
		for i := 0; i < half; i++ {
			batch = append(batch, jobs.DeleteReq(fmt.Sprintf("busy-%d-%d", b, i)))
		}
		go func() {
			for {
				select {
				case <-stop:
					busyErr <- nil
					return
				default:
				}
				errs, err := busy.Batch(batch, 0)
				if err == nil {
					err = errors.Join(errs...)
				}
				if err != nil {
					busyErr <- err
					return
				}
			}
		}()
	}

	var expired []string
	for try, end := 0, time.Now().Add(10*time.Second); len(expired) == 0 && time.Now().Before(end); try++ {
		name := fmt.Sprintf("dl-%d", try)
		err := c.SubmitDeadline(jobs.InsertReq(name, 0, 64), 100*time.Microsecond)
		switch {
		case errors.Is(err, client.ErrDeadline):
			expired = append(expired, name)
		case err == nil:
			// Served in time this round; clean up and try again.
			if err := c.Submit(jobs.DeleteReq(name)); err != nil {
				t.Fatalf("cleanup delete: %v", err)
			}
		default:
			t.Fatalf("submit with a 100µs deadline: unexpected %v", err)
		}
	}
	close(stop)
	for b := 0; b < busyConns; b++ {
		if err := <-busyErr; err != nil {
			t.Fatalf("busy batch: %v", err)
		}
	}
	if len(expired) == 0 {
		t.Fatal("no 100µs-deadline submit expired in 10s behind a busy tenant")
	}
	// A comfortable deadline sails through.
	if err := c.SubmitDeadline(jobs.InsertReq("kept", 0, 64), time.Second); err != nil {
		t.Fatalf("submit with 1s deadline: %v", err)
	}
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Jobs) != 1 || snap.Jobs[0].Job.Name != "kept" {
		t.Fatalf("schedule holds %v, want only kept: an expired job must not execute", snap.Jobs)
	}

	s.Close() // closes the tenant's WAL
	got, err := wal.Read(filepath.Join(dir, "acme"))
	if err != nil {
		t.Fatal(err)
	}
	logged := make(map[string]bool)
	for _, r := range got.Records {
		logged[r.Req.Name] = true
		for _, q := range r.Batch {
			logged[q.Name] = true
		}
	}
	if !logged["kept"] {
		t.Fatal("WAL does not name kept: the log under test is not the tenant's")
	}
	for _, name := range expired {
		if logged[name] {
			t.Fatalf("WAL names the expired request %q: an expiry must not be logged", name)
		}
	}
}

// TestServerDeadlineBeyondClockRange: a wire deadline too large for
// the clock means no deadline. Before, it wrapped into an expiry in
// the past and the request was rejected un-executed.
func TestServerDeadlineBeyondClockRange(t *testing.T) {
	s := startServer(t, server.Config{})
	nc := dialRaw(t, s.Addr().String())
	for i, us := range []uint64{math.MaxInt64, 1 << 63, math.MaxUint64} {
		f := wire.Frame{Kind: wire.KindSubmit, ID: uint64(i + 1), DeadlineUS: us,
			Req: jobs.InsertReq(fmt.Sprintf("far-%d", i), 0, 64)}
		if _, err := wire.WriteFrame(nc, nil, &f); err != nil {
			t.Fatalf("submit: %v", err)
		}
		ack, _, err := wire.ReadFrame(nc, nil)
		if err != nil {
			t.Fatalf("ack: %v", err)
		}
		if ack.Kind != wire.KindAck || ack.Code != wire.CodeOK {
			t.Fatalf("deadline %dµs: got %s code %s, want an OK ack", us, ack.Kind, ack.Code)
		}
	}
	f := wire.Frame{Kind: wire.KindBatch, ID: 9, DeadlineUS: 1 << 63, Batch: []jobs.Request{
		jobs.InsertReq("far-b0", 0, 64), jobs.InsertReq("far-b1", 0, 64)}}
	if _, err := wire.WriteFrame(nc, nil, &f); err != nil {
		t.Fatalf("batch: %v", err)
	}
	ack, _, err := wire.ReadFrame(nc, nil)
	if err != nil {
		t.Fatalf("batch ack: %v", err)
	}
	for k, code := range ack.Codes {
		if code != wire.CodeOK {
			t.Fatalf("batch member %d: code %s, want OK", k, code)
		}
	}
}

// TestServerGracefulCloseDrains: close with submits in flight — every
// accepted request still gets exactly one verdict (possibly
// ErrClosed), and the server Close returns.
func TestServerGracefulCloseDrains(t *testing.T) {
	s := startServer(t, server.Config{})
	c := dial(t, s, "acme")

	const n = 128
	pend := make([]*client.Pending, 0, n)
	for i := 0; i < n; i++ {
		p, err := c.SubmitAsync(jobs.InsertReq(fmt.Sprintf("g-%03d", i), 0, 4096), 0)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pend = append(pend, p)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()

	var acked, failed int
	for _, p := range pend {
		switch err := p.Wait(); {
		case err == nil:
			acked++
		case errors.Is(err, client.ErrClosed):
			failed++
		default:
			failed++
		}
	}
	if acked+failed != n {
		t.Fatalf("%d+%d verdicts for %d submits", acked, failed, n)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server Close did not return")
	}
}

// TestServerConcurrentTenantsRace (-race): tenant creation, submission
// from many connections, and graceful shutdown all race; every
// submitted request observed exactly one verdict.
func TestServerConcurrentTenantsRace(t *testing.T) {
	s := startServer(t, server.Config{MaxInflight: 64})

	const (
		tenants   = 6
		connsPer  = 2
		perConn   = 40
		closeTrig = tenants * connsPer * perConn / 3
	)
	var verdicts atomic.Int64
	var submitted atomic.Int64
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		for ci := 0; ci < connsPer; ci++ {
			wg.Add(1)
			go func(ti, ci int) {
				defer wg.Done()
				c, err := client.Dial(s.Addr().String(), fmt.Sprintf("tenant-%d", ti))
				if err != nil {
					return // server may already be closing
				}
				defer c.Close()
				for i := 0; i < perConn; i++ {
					p, err := c.SubmitAsync(jobs.InsertReq(fmt.Sprintf("c%d-%03d", ci, i), 0, 4096), 0)
					if err != nil {
						return // connection torn down by shutdown
					}
					submitted.Add(1)
					p2 := p
					wg.Add(1)
					go func() {
						defer wg.Done()
						p2.Wait() // any verdict is fine; it must arrive
						verdicts.Add(1)
					}()
				}
			}(ti, ci)
		}
	}
	// Let the race build, then close mid-flight.
	for verdicts.Load() < closeTrig {
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if v, sub := verdicts.Load(), submitted.Load(); v != sub {
		t.Fatalf("%d verdicts for %d accepted submits — lost acks", v, sub)
	}
	t.Logf("race: %d submits, all acked", submitted.Load())
}
