// Command reallocload drives a reallocd server with an open-loop
// workload and reports coordinated-omission-free latency.
//
// Open loop means arrivals follow a fixed schedule (-rate per tenant)
// regardless of how fast the server acks: request i of a tenant is
// DUE at start + i/rate, and its latency is measured from that due
// time — not from the moment the client got around to sending it — so
// a server stall inflates the tail of every request queued behind it,
// exactly as real clients would experience it.
//
// Each tenant gets one connection and a pipelined submit stream of
// window-rotating inserts with delete churn. Per-request overload and
// deadline verdicts are counted, not fatal; protocol errors and lost
// acks are fatal in -strict mode.
//
//	reallocload -addr 127.0.0.1:7411 -tenants 2 -rate 2000 -duration 5s
//	reallocload ... -deadline 50ms -out BENCH_SERVE.json -strict -maxp99us 50000
//
// Failover testing: -ackedlog records every acknowledged-OK insert
// ("I name") and every attempted delete ("D name") the moment it
// happens, -tolerate-drop makes a mid-run connection loss a counted
// outcome instead of a failure, and -verify addr replays the acked
// log against a (promoted) server's snapshots, asserting that every
// insert the old primary acked — and no later delete touched — is
// still scheduled. That is the zero-lost-acks check.
//
//	reallocload ... -ackedlog acked.log -tolerate-drop   # during the kill
//	reallocload -verify 127.0.0.1:7413 -ackedlog acked.log
//
// Scenarios: -scenario churn (default) synthesizes the window-rotating
// insert/delete stream inline. -scenario trace replays a pregenerated
// cluster-trace-shaped workload (diurnal rate curve, bounded-Pareto
// spans, hot-key skew aimed at shard 0 of the server's per-tenant ring
// via -skew/-shards), and -scenario adversarial replays the
// n*-threshold walk — both built per tenant from -seed so the served
// path sees the same storms the embedded benchmarks do. Deletes whose
// inserts were shed by admission control ack unknown-job; those are
// counted separately, not as failures. -ackedlog only makes sense for
// churn's monotone names and is rejected for the replay scenarios.
//
//	reallocload ... -scenario trace -skew 0.8 -shards 4
//
// Exit status: 0 on a clean run; 1 on transport failure; 2 when
// -strict finds protocol errors or lost acks, p99 exceeds -maxp99us,
// or -verify finds missing acked writes.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/hdr"
	"repro/internal/jobs"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Report is the machine-readable result of one load run (-out).
type Report struct {
	Addr          string  `json:"addr"`
	Scenario      string  `json:"scenario"`
	Tenants       int     `json:"tenants"`
	RatePerTenant float64 `json:"rate_per_tenant_rps"`
	DurationSec   float64 `json:"duration_sec"`
	DeadlineUS    uint64  `json:"deadline_us,omitempty"`
	Scheduled     int     `json:"scheduled"`
	Acked         int     `json:"acked"`
	Dropped       int     `json:"dropped,omitempty"`
	OK            int     `json:"ok"`
	Overload      int     `json:"overload"`
	Deadline      int     `json:"deadline"`
	Unknown       int     `json:"unknown,omitempty"`
	Failures      int     `json:"failures"`
	ProtoErrors   int     `json:"proto_errors"`
	LostAcks      int     `json:"lost_acks"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P90LatencyUS  float64 `json:"p90_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
	P999LatencyUS float64 `json:"p999_latency_us"`
	MaxLatencyUS  float64 `json:"max_latency_us"`
}

type counters struct {
	scheduled, acked           atomic.Int64
	ok, overload, dl, failures atomic.Int64
	unknown                    atomic.Int64
	protoErrors, dropped       atomic.Int64
}

// ackLog is the durable record of acknowledged writes: one "I name"
// line per acked-OK insert, one "D name" line per attempted delete.
// The verify pass treats (acked inserts) minus (attempted deletes) as
// the set that MUST survive a failover. Lines are flushed on every
// append — the log must be complete up to the moment the process (or
// the primary) dies.
type ackLog struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
}

func openAckLog(path string) (*ackLog, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &ackLog{f: f, w: bufio.NewWriter(f)}, nil
}

func (a *ackLog) add(op byte, name string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.w.WriteByte(op)
	a.w.WriteByte(' ')
	a.w.WriteString(name)
	a.w.WriteByte('\n')
	a.w.Flush()
	a.mu.Unlock()
}

func (a *ackLog) close() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.w.Flush()
	a.f.Sync()
	a.f.Close()
	a.mu.Unlock()
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7411", "reallocd address")
		tenants  = flag.Int("tenants", 2, "number of tenants (one connection each)")
		rate     = flag.Float64("rate", 1000, "open-loop arrival rate per tenant (req/s)")
		duration = flag.Duration("duration", 5*time.Second, "run length")
		deadline = flag.Duration("deadline", 0, "per-request deadline (0 = none)")
		span     = flag.Int64("span", 4096, "job window span (timeslots)")
		churn    = flag.Int("churn", 4, "delete every Nth inserted job (0 = never)")
		out      = flag.String("out", "", "write JSON report to this path")
		strict   = flag.Bool("strict", false, "exit 2 on protocol errors or lost acks")
		maxP99US = flag.Float64("maxp99us", 0, "exit 2 if p99 latency exceeds this (µs, 0 = no gate)")
		ackPath  = flag.String("ackedlog", "", "record acked-OK inserts and attempted deletes to this file")
		tolerate = flag.Bool("tolerate-drop", false, "count a mid-run connection loss as an outcome, not a failure")
		verify   = flag.String("verify", "", "verify an -ackedlog against this server's snapshots instead of generating load")
		scenario = flag.String("scenario", "churn", "workload shape: churn, trace, or adversarial")
		seed     = flag.Int64("seed", 1, "base seed for the trace/adversarial scenarios (tenant index is mixed in)")
		skew     = flag.Float64("skew", 0.5, "trace scenario: fraction of inserts aimed at one shard of the server ring (0 = no skew)")
		shards   = flag.Int("shards", 4, "trace scenario: shard count of the server's per-tenant ring (reallocd -shards)")
		machines = flag.Int("machines", 16, "trace/adversarial scenarios: machine count the generator budgets for (reallocd -machines)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "reallocload: ", log.LstdFlags)

	if *verify != "" {
		if *ackPath == "" {
			logger.Fatalf("-verify requires -ackedlog")
		}
		os.Exit(runVerify(logger, *verify, *ackPath))
	}

	switch *scenario {
	case "churn", "trace", "adversarial":
	default:
		logger.Fatalf("unknown scenario %q (want churn, trace, or adversarial)", *scenario)
	}
	if *ackPath != "" && *verify == "" && *scenario != "churn" {
		// The verify pass derives tenants from churn's monotone name
		// scheme; a replayed trace would silently verify nothing.
		logger.Fatalf("-ackedlog requires -scenario churn")
	}

	var acks *ackLog
	if *ackPath != "" {
		var err error
		if acks, err = openAckLog(*ackPath); err != nil {
			logger.Fatalf("ackedlog: %v", err)
		}
		defer acks.close()
	}

	// The replay scenarios are pregenerated so the open loop spends its
	// schedule on the wire, not on the generator: one decorrelated
	// sequence per tenant (the generator splitmixes its seed, so
	// adjacent per-tenant seeds do not alias).
	loads := make([][]jobs.Request, *tenants)
	if *scenario != "churn" {
		total := int(duration.Seconds() * *rate)
		for ti := range loads {
			reqs, err := buildTenantLoad(*scenario, *seed+int64(ti), total, *machines, *skew, *shards)
			if err != nil {
				logger.Fatalf("scenario %s: %v", *scenario, err)
			}
			loads[ti] = reqs
		}
	}

	lat := hdr.New()
	var c counters
	var wg sync.WaitGroup
	start := time.Now()
	for ti := 0; ti < *tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			runTenant(logger, fmt.Sprintf("load-%d", ti), *addr, *rate, *duration,
				*deadline, *span, *churn, loads[ti], lat, &c, acks, *tolerate)
		}(ti)
	}
	wg.Wait()
	wall := time.Since(start)

	snap := lat.Snapshot()
	rep := Report{
		Addr:          *addr,
		Scenario:      *scenario,
		Tenants:       *tenants,
		RatePerTenant: *rate,
		DurationSec:   duration.Seconds(),
		Scheduled:     int(c.scheduled.Load()),
		Acked:         int(c.acked.Load()),
		Dropped:       int(c.dropped.Load()),
		OK:            int(c.ok.Load()),
		Overload:      int(c.overload.Load()),
		Deadline:      int(c.dl.Load()),
		Unknown:       int(c.unknown.Load()),
		Failures:      int(c.failures.Load()),
		ProtoErrors:   int(c.protoErrors.Load()),
		LostAcks:      int(c.scheduled.Load() - c.acked.Load() - c.dropped.Load()),
		ThroughputRPS: float64(c.acked.Load()) / wall.Seconds(),
		P50LatencyUS:  float64(snap.Quantile(0.50)) / 1e3,
		P90LatencyUS:  float64(snap.Quantile(0.90)) / 1e3,
		P99LatencyUS:  float64(snap.Quantile(0.99)) / 1e3,
		P999LatencyUS: float64(snap.Quantile(0.999)) / 1e3,
		MaxLatencyUS:  float64(snap.Max()) / 1e3,
	}
	if *deadline > 0 {
		rep.DeadlineUS = uint64(*deadline / time.Microsecond)
	}

	logger.Printf("%s: %d scheduled, %d acked (%d ok, %d overload, %d deadline, %d unknown, %d failed), %d dropped, p50=%.0fµs p99=%.0fµs max=%.0fµs",
		rep.Scenario, rep.Scheduled, rep.Acked, rep.OK, rep.Overload, rep.Deadline, rep.Unknown,
		rep.Failures, rep.Dropped, rep.P50LatencyUS, rep.P99LatencyUS, rep.MaxLatencyUS)

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			logger.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			logger.Fatalf("write %s: %v", *out, err)
		}
		logger.Printf("report: %s", *out)
	}

	if *strict && (rep.ProtoErrors > 0 || rep.LostAcks > 0) {
		logger.Printf("STRICT FAIL: %d protocol errors, %d lost acks", rep.ProtoErrors, rep.LostAcks)
		os.Exit(2)
	}
	if *maxP99US > 0 && rep.P99LatencyUS > *maxP99US {
		logger.Printf("STRICT FAIL: p99 %.0fµs exceeds ceiling %.0fµs", rep.P99LatencyUS, *maxP99US)
		os.Exit(2)
	}
}

// buildTenantLoad pregenerates one tenant's replay scenario. The trace
// is sized to the open-loop schedule exactly; the adversarial walk is
// sized by cycles, so its length tracks total only approximately — the
// replay just runs the sequence it got.
func buildTenantLoad(scenario string, seed int64, total, machines int, skew float64, shards int) ([]jobs.Request, error) {
	switch scenario {
	case "trace":
		cfg := workload.TraceConfig{Seed: seed, Machines: machines, Horizon: 1 << 12, Steps: total}
		if skew > 0 && shards > 1 {
			// reallocd builds each tenant's scheduler with the default
			// routing policy — NewRing(shards) — so an identical
			// client-side ring aims the hot keys at shard 0.
			ring := shard.NewRing(shards)
			cfg.HotFraction = skew
			cfg.HotRoute = func(name string) bool { return ring.Route(name, shards) == 0 }
		}
		return workload.TraceReplay(cfg)
	case "adversarial":
		cfg := workload.AdversarialConfig{Seed: seed, Machines: machines, Horizon: 1 << 11}
		peak := int(cfg.Horizon) * machines / 16
		if cycles := total / (2 * peak); cycles > 0 {
			cfg.Cycles = cycles
		} else {
			cfg.Cycles = 1
		}
		return workload.Adversarial(cfg)
	default:
		return nil, fmt.Errorf("no pregenerated load for scenario %q", scenario)
	}
}

// runTenant drives one tenant's open-loop schedule to completion. A
// non-nil reqs replays that pregenerated sequence; otherwise the churn
// scenario synthesizes its requests inline.
func runTenant(logger *log.Logger, tenant, addr string, rate float64, duration, deadline time.Duration,
	span int64, churn int, reqs []jobs.Request, lat *hdr.Histogram, c *counters, acks *ackLog, tolerate bool) {
	cl, err := client.Dial(addr, tenant)
	if err != nil {
		logger.Printf("%s: dial: %v", tenant, err)
		c.protoErrors.Add(1)
		return
	}
	defer cl.Close()

	interval := time.Duration(float64(time.Second) / rate)
	total := int(duration.Seconds() * rate)
	if reqs != nil {
		total = len(reqs)
	}
	start := time.Now()
	var inner sync.WaitGroup
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		// Open loop: wait for the schedule, never for the server.
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		var req jobs.Request
		var name string
		insert := true
		if reqs != nil {
			req = reqs[i]
			name = req.Name
			insert = req.Kind == jobs.Insert
		} else {
			name = fmt.Sprintf("%s-%06d", tenant, i)
			if churn > 0 && i%churn == churn-1 {
				insert = false
				name = fmt.Sprintf("%s-%06d", tenant, i-1)
				req = jobs.DeleteReq(name)
			} else {
				s := (int64(i) % 16) * span
				req = jobs.InsertReq(name, s, s+span)
			}
		}
		if !insert {
			// A delete is logged when ATTEMPTED, not when acked: once
			// it is on the wire the job may be gone whether or not the
			// ack made it back, so the name can no longer be required
			// to survive a failover.
			acks.add('D', name)
		}
		c.scheduled.Add(1)
		p, err := cl.SubmitAsync(req, deadline)
		if err != nil {
			// Connection-fatal: everything after this would fail too.
			if tolerate && isVerdict(err, client.ErrClosed) {
				logger.Printf("%s: connection lost at request %d (tolerated)", tenant, i)
				c.dropped.Add(1)
				break
			}
			logger.Printf("%s: submit %d: %v", tenant, i, err)
			c.protoErrors.Add(1)
			break
		}
		inner.Add(1)
		go func(due time.Time, name string, insert bool) {
			defer inner.Done()
			err := p.Wait()
			if tolerate && isVerdict(err, client.ErrClosed) {
				// The connection died before this ack: the write is in
				// limbo (it may or may not have committed), which is
				// exactly what the failover verifier tolerates.
				c.dropped.Add(1)
				return
			}
			// Latency from the DUE time: coordinated-omission free.
			lat.Record(int64(time.Since(due)))
			c.acked.Add(1)
			switch {
			case err == nil:
				c.ok.Add(1)
				if insert {
					acks.add('I', name)
				}
			case isVerdict(err, client.ErrOverload):
				c.overload.Add(1)
			case isVerdict(err, client.ErrDeadline):
				c.dl.Add(1)
			case isVerdict(err, client.ErrUnknownJob) && !insert:
				// The delete's insert was shed upstream (admission budget
				// or infeasibility): an expected storm outcome, not a
				// failure of the served path.
				c.unknown.Add(1)
			case isVerdict(err, client.ErrDuplicate), isVerdict(err, client.ErrUnknownJob),
				isVerdict(err, client.ErrInfeasible):
				c.failures.Add(1) // per-request verdicts, not protocol errors
			default:
				c.failures.Add(1)
				c.protoErrors.Add(1)
			}
		}(due, name, insert)
	}
	inner.Wait()
}

func isVerdict(err, target error) bool {
	return err != nil && errors.Is(err, target)
}

// runVerify is the zero-lost-acks check: parse the acked log into the
// per-tenant set of names that MUST still be scheduled (acked-OK
// inserts with no delete attempt), snapshot each tenant on the
// (promoted) server, and report anything missing. Returns the process
// exit code.
func runVerify(logger *log.Logger, addr, ackPath string) int {
	f, err := os.Open(ackPath)
	if err != nil {
		logger.Printf("verify: %v", err)
		return 1
	}
	defer f.Close()

	// expected[tenant] = set of names that must survive.
	expected := make(map[string]map[string]bool)
	// A 'D' line tombstones its name permanently, regardless of where
	// it appears relative to the 'I' line: waits are pipelined, so the
	// insert's acked-OK line can land in the log AFTER the delete
	// attempt for the same name. Names are never reused within a run,
	// so order-independent tombstoning is exact.
	deleted := make(map[string]bool)
	tenantOf := func(name string) string {
		// Names are "<tenant>-%06d"; the tenant itself may contain '-'.
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			return name[:i]
		}
		return name
	}
	lines := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if len(line) < 3 || line[1] != ' ' {
			continue
		}
		op, name := line[0], line[2:]
		lines++
		ten := tenantOf(name)
		set := expected[ten]
		if set == nil {
			set = make(map[string]bool)
			expected[ten] = set
		}
		switch op {
		case 'I':
			if !deleted[name] {
				set[name] = true
			}
		case 'D':
			deleted[name] = true
			delete(set, name)
		}
	}
	if err := sc.Err(); err != nil {
		logger.Printf("verify: reading %s: %v", ackPath, err)
		return 1
	}

	tenants := make([]string, 0, len(expected))
	for t := range expected {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)

	missing, checked := 0, 0
	for _, ten := range tenants {
		cl, err := client.Dial(addr, ten, client.WithRedial(10, 200*time.Millisecond))
		if err != nil {
			logger.Printf("verify: dial %s as %q: %v", addr, ten, err)
			return 1
		}
		snap, err := cl.Snapshot()
		cl.Close()
		if err != nil {
			logger.Printf("verify: snapshot %q: %v", ten, err)
			return 1
		}
		have := make(map[string]bool, len(snap.Jobs))
		for _, pj := range snap.Jobs {
			have[pj.Job.Name] = true
		}
		for name := range expected[ten] {
			checked++
			if !have[name] {
				if missing < 20 {
					logger.Printf("verify: LOST ACK: %q was acked but is not scheduled", name)
				}
				missing++
			}
		}
	}
	logger.Printf("verify: %d log lines, %d required names across %d tenants, %d missing",
		lines, checked, len(tenants), missing)
	if missing > 0 {
		logger.Printf("VERIFY FAIL: %d acked writes lost", missing)
		return 2
	}
	logger.Printf("verify: zero lost acks")
	return 0
}
