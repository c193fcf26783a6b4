// Command reallocbench runs the GOMAXPROCS x shard-count scaling study
// of the sharded front-end over workload.Mixed and writes it as JSON.
//
// Two kinds of curves per (procs, shards) point:
//
//   - closed-loop: each driver lane sends its next request when the
//     previous one returns — measures capacity;
//   - open-loop: requests arrive on a fixed schedule at a fraction of
//     the measured capacity, and latency is taken from the SCHEDULED
//     arrival time, not the actual send — so server-side queueing shows
//     up in the tail instead of being silently omitted (the
//     "coordinated omission" trap of closed-loop harnesses).
//
// Every other end-to-end question — the bare stack, the logged
// front-end, the served and replicated daemon — is measured by the
// repository benchmark in bench/. It has no GOMAXPROCS sweep, so this
// study is the run that would show shard-queue contention on a
// many-core box.
//
// Usage:
//
//	reallocbench                                  # procs up to NumCPU, shards {1,4,8}, BENCH_PR6.json
//	reallocbench -quick -procs 1,2 -shards 1,2 -out /tmp/scaling.json
//
// Request latencies are recorded into allocation-free HDR histograms
// (internal/hdr), so the driver stays off the GC profile it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	realloc "repro"
	"repro/internal/hdr"
	"repro/internal/jobs"
	"repro/internal/workload"
)

// Report is the JSON document.
type Report struct {
	Scenario    string          `json:"scenario"`
	CPUs        int             `json:"cpus"`
	GoVersion   string          `json:"go_version"`
	Machines    int             `json:"machines"`
	Requests    int             `json:"requests"`
	Drivers     int             `json:"drivers"`
	ProcsLadder []int           `json:"gomaxprocs_ladder"`
	ShardLadder []int           `json:"shard_ladder"`
	ClosedLoop  []ClosedLoopRun `json:"closed_loop"`
	OpenLoop    []OpenLoopRun   `json:"open_loop"`
}

// Latency is a run's request-latency distribution in microseconds.
type Latency struct {
	P50  float64 `json:"p50_latency_us"`
	P90  float64 `json:"p90_latency_us"`
	P99  float64 `json:"p99_latency_us"`
	P999 float64 `json:"p999_latency_us"`
	Max  float64 `json:"max_latency_us"`
}

// ClosedLoopRun is one closed-loop capacity point.
type ClosedLoopRun struct {
	Name          string  `json:"name"`
	Procs         int     `json:"gomaxprocs"`
	Shards        int     `json:"shards"`
	Served        int     `json:"served"`
	Failures      int     `json:"failures"`
	WallMillis    float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Latency
	Reallocations int `json:"reallocations"`
	Migrations    int `json:"migrations"`
	Overflow      int `json:"overflow,omitempty"`
}

// OpenLoopRun is one open-loop arrival-rate point. Latencies are
// measured from each request's scheduled arrival time.
type OpenLoopRun struct {
	Name           string  `json:"name"`
	Procs          int     `json:"gomaxprocs"`
	Shards         int     `json:"shards"`
	TargetFraction float64 `json:"target_fraction"` // of measured closed-loop capacity
	TargetRPS      float64 `json:"target_rps"`
	AchievedRPS    float64 `json:"achieved_rps"`
	Requests       int     `json:"requests"`
	Failures       int     `json:"failures"`
	Latency
}

// config is one study: the workload, the two ladders and the open-loop
// rates.
type config struct {
	seed     int64
	machines int
	requests int
	drivers  int
	shards   []int
	procs    []int
	rates    []float64
	out      string
}

func main() {
	var (
		machines = flag.Int("machines", 8, "total machine pool")
		requests = flag.Int("requests", 20000, "request count")
		shardSet = flag.String("shards", "1,4,8", "comma-separated shard-count ladder")
		drivers  = flag.Int("drivers", 8, "concurrent driver lanes")
		seed     = flag.Int64("seed", 1, "workload seed")
		out      = flag.String("out", "BENCH_PR6.json", "output JSON path")
		quick    = flag.Bool("quick", false, "small parameters for smoke runs")
		procsSet = flag.String("procs", "", "comma-separated GOMAXPROCS ladder (default: powers of two up to NumCPU)")
		ratesSet = flag.String("rates", "0.5,0.75,0.9", "open-loop arrival rates, as fractions of the measured closed-loop throughput")
	)
	flag.Parse()

	cfg := config{seed: *seed, machines: *machines, requests: *requests, drivers: *drivers, out: *out}
	if *quick {
		cfg.requests = 2000
	}
	var err error
	if cfg.shards, err = parseCounts("-shards", *shardSet); err != nil {
		fail(err)
	}
	if cfg.procs, err = parseProcs(*procsSet); err != nil {
		fail(err)
	}
	if cfg.rates, err = parseRates(*ratesSet); err != nil {
		fail(err)
	}
	if err := run(cfg); err != nil {
		fail(err)
	}
}

// run measures every (procs, shards) point of the study and writes the
// report to cfg.out.
func run(cfg config) error {
	reqs, err := workload.Mixed(workload.MixedConfig{
		Seed: cfg.seed, Machines: cfg.machines, Horizon: 1 << 14, Steps: cfg.requests,
	})
	if err != nil {
		return err
	}
	lanes := partitionLanes(reqs, cfg.drivers)
	rep := Report{
		Scenario: "scaling", CPUs: runtime.NumCPU(), GoVersion: runtime.Version(),
		Machines: cfg.machines, Requests: len(reqs), Drivers: cfg.drivers,
		ProcsLadder: cfg.procs, ShardLadder: cfg.shards,
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range cfg.procs {
		runtime.GOMAXPROCS(p)
		for _, sc := range cfg.shards {
			if sc > cfg.machines {
				fmt.Printf("skip procs=%d shards=%d: more shards than machines\n", p, sc)
				continue
			}
			o := drive(lanes, len(reqs), cfg.machines, sc, 0)
			closed := ClosedLoopRun{
				Name: fmt.Sprintf("closed-p%d-s%d", p, sc), Procs: p, Shards: sc,
				Served: o.count - o.failures, Failures: o.failures,
				WallMillis:    float64(o.wall.Microseconds()) / 1e3,
				ThroughputRPS: o.rps(),
				Latency:       o.latency,
				Reallocations: o.reallocations, Migrations: o.migrations, Overflow: o.overflow,
			}
			rep.ClosedLoop = append(rep.ClosedLoop, closed)
			fmt.Printf("%-18s  %10.0f req/s  p50 %7.1fus  p99 %7.1fus  p99.9 %8.1fus\n",
				closed.Name, closed.ThroughputRPS, closed.P50, closed.P99, closed.P999)
			for _, frac := range cfg.rates {
				target := closed.ThroughputRPS * frac
				if target <= 0 {
					continue
				}
				o := drive(lanes, len(reqs), cfg.machines, sc, target)
				ol := OpenLoopRun{
					Name: fmt.Sprintf("open-p%d-s%d-r%.2f", p, sc, frac), Procs: p, Shards: sc,
					TargetFraction: frac, TargetRPS: target, AchievedRPS: o.rps(),
					Requests: o.count, Failures: o.failures,
					Latency: o.latency,
				}
				rep.OpenLoop = append(rep.OpenLoop, ol)
				fmt.Printf("%-18s  target %8.0f  achieved %8.0f req/s  p50 %7.1fus  p99 %7.1fus  p99.9 %8.1fus\n",
					ol.Name, ol.TargetRPS, ol.AchievedRPS, ol.P50, ol.P99, ol.P999)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.out)
	return nil
}

// outcome is what one replay measured.
type outcome struct {
	wall          time.Duration
	count         int // requests sent
	failures      int
	latency       Latency
	reallocations int
	migrations    int
	overflow      int
}

func (o outcome) rps() float64 {
	if o.wall <= 0 {
		return 0
	}
	return float64(o.count) / o.wall.Seconds()
}

// drive replays the lanes against a fresh sharded scheduler, one
// goroutine per lane. With rps == 0 it runs closed-loop: a lane sends
// its next request when the previous one returns, and latency runs from
// the send. With rps > 0 it runs open-loop at that aggregate arrival
// rate, split across lanes in proportion to their length: a lane's k-th
// request is due at start + k/laneRate, a request that finds its slot in
// the past is sent at once, and latency runs from the due time. A
// delete whose insert failed is skipped but keeps its slot, so the
// offered rate stays on schedule.
func drive(lanes [][]jobs.Request, total, machines, shards int, rps float64) outcome {
	s := realloc.NewSharded(realloc.WithMachines(machines), realloc.WithShards(shards))
	defer s.Close()

	lat := hdr.New() // concurrent-safe: all lanes record into one histogram
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, rs := range lanes {
		if len(rs) == 0 {
			continue
		}
		var interval time.Duration
		if rps > 0 {
			interval = time.Duration(float64(time.Second) * float64(total) / (rps * float64(len(rs))))
		}
		wg.Add(1)
		go func(rs []jobs.Request, interval time.Duration) {
			defer wg.Done()
			skip := make(map[string]bool)
			for k, r := range rs {
				if r.Kind == jobs.Delete && skip[r.Name] {
					continue
				}
				due := time.Now()
				if interval > 0 {
					due = start.Add(time.Duration(k) * interval)
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
				}
				_, err := s.Apply(r)
				lat.Record(int64(time.Since(due)))
				if err != nil {
					failed.Add(1)
					if r.Kind == jobs.Insert {
						skip[r.Name] = true
					}
				}
			}
		}(rs, interval)
	}
	wg.Wait()
	wall := time.Since(start)

	snap := lat.Snapshot()
	tot := s.Report().Total()
	return outcome{
		wall:     wall,
		count:    int(snap.Count()),
		failures: int(failed.Load()),
		latency: Latency{
			P50:  quantileUS(snap, 0.50),
			P90:  quantileUS(snap, 0.90),
			P99:  quantileUS(snap, 0.99),
			P999: quantileUS(snap, 0.999),
			Max:  float64(snap.Max()) / 1e3,
		},
		reallocations: tot.Cost.Reallocations,
		migrations:    tot.Cost.Migrations,
		overflow:      tot.Overflow,
	}
}

// partitionLanes splits the request stream across driver lanes,
// keeping every request for a given name in one lane (a delete must
// trail its insert) and assigning names to lanes round-robin in order
// of first appearance. Hashing the name instead would correlate lane
// load with the scheduler's consistent-hash routing, so a workload
// skewed against the routing would skew the drivers too; round-robin
// balances lane load whatever the key distribution.
func partitionLanes(reqs []jobs.Request, drivers int) [][]jobs.Request {
	lanes := make([][]jobs.Request, drivers)
	laneOf := make(map[string]int, len(reqs))
	next := 0
	for _, r := range reqs {
		lane, ok := laneOf[r.Name]
		if !ok {
			lane = next
			laneOf[r.Name] = lane
			next = (next + 1) % drivers
		}
		lanes[lane] = append(lanes[lane], r)
	}
	return lanes
}

// quantileUS returns the q-quantile of a latency histogram in
// microseconds.
func quantileUS(l hdr.Snapshot, q float64) float64 {
	if l.Count() == 0 {
		return 0
	}
	return float64(l.Quantile(q)) / 1e3
}

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(name, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad %s entry %q", name, part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseProcs parses -procs, defaulting to powers of two up to NumCPU
// (plus NumCPU itself when it is not a power of two).
func parseProcs(s string) ([]int, error) {
	if s != "" {
		return parseCounts("-procs", s)
	}
	n := runtime.NumCPU()
	var out []int
	for p := 1; p < n; p *= 2 {
		out = append(out, p)
	}
	return append(out, n), nil
}

// parseRates parses -rates as fractions in (0, 1].
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || f <= 0 || f > 1 {
			return nil, fmt.Errorf("bad -rates entry %q (want a fraction in (0,1])", part)
		}
		out = append(out, f)
	}
	return out, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reallocbench:", err)
	os.Exit(2)
}
