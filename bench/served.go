package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	realloc "repro"
	"repro/client"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The served workloads compose in-process what `reallocd -wal DIR`
// composes with its default flags, and drive it over loopback TCP with
// repro/client. In-process is deliberate: the benchmark keeps the
// schedulers' handles, whose Report gives the reallocation cost and the
// dispatch histograms that acks do not carry. The WAL is write-back (no
// fsync): flushes hit the page cache, so latency is the sandbox's.
const (
	serveTenants  = 2    // one connection each
	serveTarget   = 6000 // preloaded population per tenant
	serveInflight = 1024 // reallocd -inflight default
	serveBatch    = 128  // reallocd -batch default; also the preload frame size

	// Open phase: a fixed rate for a fixed time, over all tenants.
	openRate    = 8000
	openSeconds = 1
	openEach    = openRate * openSeconds / serveTenants
	openN       = openEach * serveTenants
	// ISSUE 11 filed 100 ms, which is shorter than this box's worst pauses:
	// see README.md, "Where this differs".
	openDeadline = time.Second

	// Saturation phase: a fixed count, closed loop.
	satRequests = 30000
	satEach     = satRequests / serveTenants
	satInflight = 64   // in flight per connection
	satBlock    = 1500 // acks a block and connection, see blockTimer

	warmTimeout    = 30 * time.Second
	lagSampleEvery = 10 * time.Millisecond
)

var serveDurable = workload{
	name:    "serve_durable",
	why:     "the daemon composition over loopback: wire, server admission and coalescing, and client do the marginal work; shard is entered through ApplyBatch and recovery replays batch records",
	usesWAL: true, usesWire: true,
	round: func(r *run, ts *traceSet) (roundResult, error) { return servedRound(r, ts, false) },
}

var serveRepl = workload{
	name:    "serve_repl",
	why:     "serve_durable on the same streams plus WAL shipping to one warm follower and a planned handoff: only repl differs, so the difference between the two is the replication tax",
	usesWAL: true, usesWire: true,
	round: func(r *run, ts *traceSet) (roundResult, error) { return servedRound(r, ts, true) },
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%d", i) }

// primary is the serving side of one round.
type primary struct {
	ts   *traceSet
	root string
	srv  *server.Server
	addr string
	net  netCounts // the server's sockets, traced rounds only

	src      *repl.Source // nil without replication
	replAddr string
	replNet  netCounts
	srcDone  chan struct{} // closed when the traced Source.Serve returns

	mu     sync.Mutex
	scheds map[string]*shard.Scheduler
	wals   map[string]*walCounts
}

func serverConfig(newScheduler func(tenant string) (*shard.Scheduler, error)) server.Config {
	return server.Config{NewScheduler: newScheduler, MaxInflight: serveInflight, BatchLimit: serveBatch}
}

// startPrimary starts the server, and with replicate set the replication
// source every tenant WAL is exported to before it is opened. Traced, the
// listeners are wrapped so that socket calls and bytes are counted.
func startPrimary(ts *traceSet, root string, replicate bool) (*primary, error) {
	p := &primary{ts: ts, root: root, scheds: make(map[string]*shard.Scheduler), wals: make(map[string]*walCounts)}
	if replicate {
		p.src = repl.NewSource(repl.SourceConfig{})
		if ts == nil {
			addr, err := p.src.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			p.replAddr = addr.String()
		} else {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			p.replAddr = ln.Addr().String()
			p.srcDone = make(chan struct{})
			go func() {
				defer close(p.srcDone)
				p.src.Serve(countListener{ln, &p.replNet})
			}()
		}
	}
	cfg := serverConfig(p.newScheduler)
	if ts == nil {
		srv, err := server.Listen("127.0.0.1:0", cfg)
		if err != nil {
			return nil, err
		}
		p.srv, p.addr = srv, srv.Addr().String()
		return p, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p.srv, p.addr = server.New(cfg), ln.Addr().String()
	go p.srv.Serve(countListener{ln, &p.net}) // returns when srv.Close closes ln
	return p, nil
}

// close stops the server and the replication source and waits for both.
// It is safe to call twice.
func (p *primary) close() {
	p.srv.Close()
	if p.src != nil {
		p.src.Close()
		if p.srcDone != nil {
			<-p.srcDone
		}
	}
}

// follower is one warm in-process follower of a primary.
type follower struct {
	*repl.Follower
	root string
	done chan struct{} // closed when Run has returned
}

// startFollower starts a follower that mirrors p under root, built the
// way reallocd -follow builds it.
func startFollower(p *primary, root string) (*follower, error) {
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Primary: p.replAddr,
		Dir:     root,
		NewScheduler: func(_ string, ck *wal.Checkpoint) (*shard.Scheduler, error) {
			return realloc.NewShardedFromCheckpoint(ck, poolOptions()...)
		},
		RedialEvery: 20 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	f := &follower{Follower: fol, root: root, done: make(chan struct{})}
	go func() {
		defer close(f.done)
		fol.Run() // its error is a promotion that did not happen, which promote reports
	}()
	return f, nil
}

// stop closes the follower and waits for Run to return.
func (f *follower) stop() {
	f.Close()
	<-f.done
}

// waitWarm blocks until the follower has installed every tenant and
// replayed `requests` requests. The clock starts only after it: acked ⇒
// shipped holds for a follower that has finished installing.
func (f *follower) waitWarm(tenants, requests int) error {
	deadline := time.Now().Add(warmTimeout)
	for {
		st := f.Stats()
		if st.Warm == tenants && st.Requests == requests {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not warm after %v: %+v", warmTimeout, st)
		}
		time.Sleep(time.Millisecond)
	}
}

// promote hands the primary role to the follower and serves the
// schedulers it adopted, as reallocd's follower mode does. It returns the
// promoted server and the follower's statistics at promotion.
func (f *follower) promote(p *primary) (*server.Server, repl.FollowerStats, error) {
	if _, err := p.srv.Handoff(p.src, "bench: planned handoff"); err != nil {
		return nil, repl.FollowerStats{}, fmt.Errorf("handoff: %w", err)
	}
	st := f.Stats()
	if !st.Promoted {
		return nil, st, fmt.Errorf("handoff returned but the follower is not promoted: %+v", st)
	}
	srv, err := server.Listen("127.0.0.1:0", serverConfig(func(tenant string) (*shard.Scheduler, error) {
		if s := f.Adopt(tenant); s != nil {
			return s, nil
		}
		return nil, fmt.Errorf("tenant %q was not replicated", tenant)
	}))
	return srv, st, err
}

// newScheduler is reallocd's per-tenant composition point.
func (p *primary) newScheduler(tenant string) (*shard.Scheduler, error) {
	dir := filepath.Join(p.root, repl.TenantDir(tenant))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var observe func(seg uint64, off int64, b []byte)
	if p.src != nil {
		observe = p.src.Export(tenant, dir)
	}
	var wc *walCounts
	if p.ts != nil {
		wc = &walCounts{next: observe}
		observe = wc.observe
	}
	s, err := openSharded(p.ts, dir, observe)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.scheds[tenant], p.wals[tenant] = s, wc
	p.mu.Unlock()
	return s, nil
}

// report sums the tenants' shard reports.
func (p *primary) report() metrics.ShardReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	var all metrics.ShardReport
	for i := 0; i < serveTenants; i++ {
		if s := p.scheds[tenantName(i)]; s != nil {
			all.Shards = append(all.Shards, s.Report().Shards...)
		}
	}
	return all
}

// verdicts counts acks by outcome.
type verdicts struct {
	ok, overload, deadline, other atomic.Int64
}

func (v *verdicts) count(err error) {
	switch {
	case err == nil:
		v.ok.Add(1)
	case errors.Is(err, client.ErrOverload):
		v.overload.Add(1)
	case errors.Is(err, client.ErrDeadline):
		v.deadline.Add(1)
	default:
		v.other.Add(1)
	}
}

func (v *verdicts) failed() int { return int(v.overload.Load() + v.deadline.Load() + v.other.Load()) }

// sent is one open-loop request on its way to the tenant's ack waiter.
type sent struct {
	p   *client.Pending
	i   int // index on the merged timeline
	due int64
}

func servedRound(r *run, ts *traceSet, replicate bool) (roundResult, error) {
	var res roundResult
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) }
	if ts != nil {
		clock = ts.now
	}
	dir, err := r.roundDir()
	if err != nil {
		return res, err
	}

	// Streams: per tenant, the open phase's share, then the saturation
	// phase's, then one last request that is sent after the handoff (or,
	// without replication, after the saturation phase). Unlike the embedded
	// workloads, every round draws new streams: the latency tail here is
	// set by trim rebuilds at n* crossings, and which machines sit near a
	// threshold depends on the stream (p99 ranged 5.6–15.2 ms over ten
	// seeds and repeated within a tenth for one seed), so a run averages
	// over many streams. serve_repl draws the same ones.
	streams := make([]stream, serveTenants)
	for i := range streams {
		streams[i], err = churnStream(subSeed(r.seed, uint64(r.rounds*serveTenants+i)), poolMachines, serveTarget, openEach+satEach+1, "")
		if err != nil {
			return res, err
		}
		res.attempted += len(streams[i].preload) + len(streams[i].reqs)
	}

	p, err := startPrimary(ts, filepath.Join(dir, "primary"), replicate)
	if err != nil {
		return res, err
	}
	defer p.close()
	var fol *follower
	if replicate {
		if fol, err = startFollower(p, filepath.Join(dir, "follower")); err != nil {
			return res, err
		}
		defer fol.stop()
	}

	clients := make([]*client.Client, serveTenants)
	for i := range clients {
		if clients[i], err = client.Dial(p.addr, tenantName(i)); err != nil {
			return res, err
		}
		defer clients[i].Close()
	}
	var v verdicts
	preloaded := make(chan error, serveTenants)
	for i, c := range clients {
		go func() { preloaded <- preloadClient(c, streams[i].preload, &v) }()
	}
	for range clients {
		if err := <-preloaded; err != nil {
			return res, fmt.Errorf("preload: %w", err)
		}
	}
	if replicate {
		if err := fol.waitWarm(serveTenants, int(v.ok.Load())); err != nil {
			return res, err
		}
	}
	base, netBase, replBase := p.report(), p.net.read(), p.replNet.read()
	walBases := make([]walBase, serveTenants)
	if ts != nil {
		for i := range walBases {
			walBases[i] = p.wals[tenantName(i)].read()
		}
	}
	before := memNow(ts)
	if ts != nil {
		ts.startClock()
	}
	res.setup = time.Since(t0)

	var lag *lagSampler
	if ts != nil && replicate {
		lag = startLagSampler(&v, fol.Follower)
	}

	open := openPhase(ts, clock, clients, streams, &v)
	res.lat = open.lat

	// Saturation phase: a fixed count, closed loop.
	satStart := time.Now()
	timers := make([]*blockTimer, serveTenants)
	var sat sync.WaitGroup
	for i := range clients {
		timers[i] = &blockTimer{size: satBlock}
		sat.Add(1)
		go func(i int) {
			defer sat.Done()
			saturate(clients[i], streams[i].reqs[openEach:openEach+satEach], &v, timers[i])
		}(i)
	}
	sat.Wait()
	res.rates = sumRates(timers)
	res.onClock = open.elapsed + time.Since(satStart)
	// Read before the drain and snapshot frames that follow.
	served, shipped := p.net.read().since(netBase), p.replNet.read().since(replBase)
	if lag != nil {
		lag.stop(&r.c)
	}
	r.memDelta(ts, before, openN+satRequests)

	for _, c := range clients {
		if err := c.Drain(); err != nil {
			return res, fmt.Errorf("drain: %w", err)
		}
	}
	rep := p.report()
	res.cost, res.served = costSince(base, rep)
	sortLate, sortLat := sortedCopy(open.late), sortedCopy(res.lat)
	for _, q := range []float64{0.50, 0.99} {
		// Lateness is inside the latency (both run from the due time), so a
		// generator that is late by half of what the requests take is
		// measuring itself: the round's latency is not to be trusted.
		if l, a := quantile(sortLate, q), quantile(sortLat, q); 2*l > a {
			fmt.Fprintf(os.Stderr, "bench: INVALID round: generator lateness p%.0f %d ns is over half the latency p%.0f %d ns\n", 100*q, l, 100*q, a)
		}
	}

	// The last request of each stream, and the final schedule it leaves.
	var snaps []client.Snapshot
	var recoverFrom string
	if !replicate {
		sendLast(clients, streams, &v)
		if snaps, err = snapshots(clients); err != nil {
			return res, err
		}
		p.close()
		recoverFrom = filepath.Join(p.root, repl.TenantDir(tenantName(0)))
	} else {
		acked := int(v.ok.Load())
		q0 := time.Now()
		promoted, st, err := fol.promote(p)
		if err != nil {
			return res, err
		}
		if st.Requests != acked || st.Failures != 0 {
			res.problems = append(res.problems, fmt.Sprintf("follower replayed %d requests (%d failures), primary acked %d", st.Requests, st.Failures, acked))
		}
		defer promoted.Close()
		redialed := make([]*client.Client, serveTenants)
		for i := range redialed {
			redialed[i], err = client.Dial(p.addr, tenantName(i), client.WithFallback(promoted.Addr().String()))
			if err != nil {
				return res, fmt.Errorf("redial: %w", err)
			}
			defer redialed[i].Close()
		}
		sendLast(redialed[:1], streams, &v)
		handoff := time.Since(q0) // Handoff call → first OK ack from the promoted server
		sendLast(redialed[1:], streams[1:], &v)
		if snaps, err = snapshots(redialed); err != nil {
			return res, err
		}
		if ts != nil {
			r.c.sample("repl.handoff_ms", float64(handoff)/1e6)
			r.c.sample("repl.promote_ms", st.PromoteMS)
			r.c.add("repl.requests_replayed", float64(st.Requests))
			r.c.add("repl.bytes", float64(shipped.bytesOut))
			r.c.add("repl.writes", float64(shipped.writes))
		}
		promoted.Close()
		recoverFrom = filepath.Join(fol.root, repl.TenantDir(tenantName(0)))
	}
	res.failed = v.failed()

	var first shard.Snapshot
	for i, snap := range snaps {
		js, asn := unpack(snap)
		if i == 0 {
			first = shard.Snapshot{Jobs: js, Assignment: asn}
		}
		if err := checkSchedule(js, asn, snap.Machines, streams[i].active); err != nil {
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", tenantName(i), err))
		}
	}

	if ts != nil {
		r.shardCounters(base, rep)
		for i := 0; i < serveTenants; i++ {
			name := tenantName(i)
			r.walCounters(p.wals[name], walBases[i], (openN+satRequests)/serveTenants, filepath.Join(p.root, repl.TenantDir(name)))
		}
		r.c.add("server.requests", float64(openN+satRequests))
		r.c.add("server.reads", float64(served.reads))
		r.c.add("server.writes", float64(served.writes))
		r.c.add("wire.bytes_in", float64(served.bytesIn))
		r.c.add("wire.bytes_out", float64(served.bytesOut))
		r.c.add("server.overload", float64(v.overload.Load()))
		r.c.add("server.deadline", float64(v.deadline.Load()))
		r.c.sample("client.submit_ns", float64(quantile(sortedCopy(open.submitNs), 0.50)))
		r.c.sample("gen.late_p50_us", float64(quantile(sortLate, 0.50))/1e3)
		r.c.sample("gen.late_p99_us", float64(quantile(sortLate, 0.99))/1e3)
		r.c.sample("gen.achieved_rps", openN/open.firing.Seconds())
	}

	// Recovery: the primary's directory, or the follower's mirror of it,
	// replayed from genesis by one sequential reader, so the placements
	// carry over too.
	if res.recover, err = recoverDir(recoverFrom, first, true); err != nil {
		res.problems = append(res.problems, err.Error())
	}
	return res, nil
}

// openResult is what the open phase measured, indexed by position on the
// merged timeline.
type openResult struct {
	lat      []int64       // due time → ack, ns
	late     []int64       // due time → the pacer got to it, ns
	submitNs []int64       // call→return of SubmitAsync
	firing   time.Duration // first due time → last request sent
	elapsed  time.Duration // first due time → last ack
}

// openPhase sends the first openEach requests of every stream on a fixed
// schedule: one pacer for all tenants on one merged timeline, one ack
// waiter a tenant.
func openPhase(ts *traceSet, clock func() int64, clients []*client.Client, streams []stream, v *verdicts) openResult {
	res := openResult{lat: make([]int64, openN), submitNs: make([]int64, openN)}
	queues := make([]chan sent, serveTenants)
	var waiters sync.WaitGroup
	for i := range queues {
		// Sized to the phase, so the pacer never waits on an ack.
		queues[i] = make(chan sent, openEach)
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			var t *tracer
			if ts != nil {
				t = ts.tracer()
			}
			for s := range queues[i] {
				err := s.p.Wait()
				now := clock()
				res.lat[s.i] = now - s.due
				v.count(err)
				if t != nil {
					rq := &streams[i].reqs[s.i/serveTenants]
					t.record(layerRequest, rq.Kind, rq.Name, s.due, now)
				}
			}
		}()
	}
	var pt *tracer
	if ts != nil {
		pt = ts.tracer()
	}
	pc := pacer{interval: time.Second / openRate, n: openN, now: clock, sleep: time.Sleep}
	start := clock()
	res.late = pc.runPinned(start, func(i int, due int64) {
		tenant := i % serveTenants
		rq := &streams[tenant].reqs[i/serveTenants]
		q0 := clock()
		pend, err := clients[tenant].SubmitAsync(*rq, openDeadline)
		q1 := clock()
		res.submitNs[i] = q1 - q0
		if pt != nil {
			pt.record(layerSubmit, rq.Kind, rq.Name, q0, q1)
		}
		if err != nil {
			v.count(err)
			return
		}
		queues[tenant] <- sent{p: pend, i: i, due: due}
	})
	res.firing = time.Duration(clock() - start)
	for _, q := range queues {
		close(q)
	}
	waiters.Wait()
	res.elapsed = time.Duration(clock() - start)
	return res
}

// preloadClient takes a tenant to its stream's starting population with
// Batch frames.
func preloadClient(c *client.Client, reqs []jobs.Request, v *verdicts) error {
	for lo := 0; lo < len(reqs); lo += serveBatch {
		errs, err := c.Batch(reqs[lo:min(lo+serveBatch, len(reqs))], 0)
		if err != nil {
			return err
		}
		for _, e := range errs {
			v.count(e)
		}
	}
	return nil
}

// saturate keeps satInflight requests of one connection in flight until
// reqs are all acked.
func saturate(c *client.Client, reqs []jobs.Request, v *verdicts, bt *blockTimer) {
	tokens := make(chan struct{}, satInflight)
	pending := make(chan *client.Pending, satInflight)
	done := make(chan struct{})
	go func() {
		defer close(done)
		bt.start()
		for p := range pending {
			v.count(p.Wait())
			bt.done()
			<-tokens
		}
	}()
	for _, rq := range reqs {
		tokens <- struct{}{}
		p, err := c.SubmitAsync(rq, 0)
		if err != nil {
			v.count(err)
			<-tokens
			continue
		}
		pending <- p
	}
	close(pending)
	<-done
}

// sendLast sends each stream's last request and waits for its ack.
func sendLast(clients []*client.Client, streams []stream, v *verdicts) {
	for i, c := range clients {
		v.count(c.Submit(streams[i].reqs[len(streams[i].reqs)-1]))
	}
}

// snapshots fetches the schedule of every tenant.
func snapshots(clients []*client.Client) ([]client.Snapshot, error) {
	snaps := make([]client.Snapshot, len(clients))
	for i, c := range clients {
		var err error
		if snaps[i], err = c.Snapshot(); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	}
	return snaps, nil
}

func unpack(snap client.Snapshot) ([]jobs.Job, jobs.Assignment) {
	js := make([]jobs.Job, len(snap.Jobs))
	asn := make(jobs.Assignment, len(snap.Jobs))
	for i, pj := range snap.Jobs {
		js[i] = pj.Job
		asn[pj.Job.Name] = pj.Placement
	}
	return js, asn
}

// lagSampler samples, every lagSampleEvery, how many requests the
// primary has acked that the follower has not yet replayed.
type lagSampler struct {
	quit chan struct{}
	done chan struct{}
	lags []int64
}

func startLagSampler(v *verdicts, fol *repl.Follower) *lagSampler {
	l := &lagSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(lagSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-l.quit:
				return
			case <-tick.C:
				// Read the follower first: the other order could count an
				// ack the follower had already replayed as negative lag.
				replayed := int64(fol.Stats().Requests)
				l.lags = append(l.lags, max(v.ok.Load()-replayed, 0))
			}
		}
	}()
	return l
}

func (l *lagSampler) stop(c *counters) {
	close(l.quit)
	<-l.done
	s := sortedCopy(l.lags)
	c.sample("repl.lag_reqs_p50", float64(quantile(s, 0.50)))
	c.sample("repl.lag_reqs_p99", float64(quantile(s, 0.99)))
	c.sample("repl.lag_reqs_max", float64(quantile(s, 1)))
}
