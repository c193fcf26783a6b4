// The -scaling mode: a GOMAXPROCS x shard-count study of the sharded
// front-end, emitted as BENCH_PR6.json.
//
// Two kinds of curves per (procs, shards) point:
//
//   - closed-loop: the usual driver loop (next request leaves when the
//     previous one returns) — measures capacity;
//   - open-loop: requests arrive on a fixed schedule at a fraction of
//     the measured capacity, and latency is taken from the SCHEDULED
//     arrival time, not the actual send — so server-side queueing shows
//     up in the tail instead of being silently omitted (the
//     "coordinated omission" trap of closed-loop harnesses).
package main

import (
	"encoding/json"
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
)

type scalingConfig struct {
	seed     int64
	machines int
	requests int
	drivers  int
	shardSet string
	procsSet string
	ratesSet string
	out      string
}

// ScalingReport is the BENCH_PR6.json document.
type ScalingReport struct {
	Scenario    string        `json:"scenario"`
	CPUs        int           `json:"cpus"`
	GoVersion   string        `json:"go_version"`
	Machines    int           `json:"machines"`
	Requests    int           `json:"requests"`
	Drivers     int           `json:"drivers"`
	ProcsLadder []int         `json:"gomaxprocs_ladder"`
	ShardLadder []int         `json:"shard_ladder"`
	ClosedLoop  []ScalingRun  `json:"closed_loop"`
	OpenLoop    []OpenLoopRun `json:"open_loop"`
}

// ScalingRun is one closed-loop capacity point.
type ScalingRun struct {
	Procs int `json:"gomaxprocs"`
	Run
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
	P50LatencyUS   float64 `json:"p50_latency_us"`
	P90LatencyUS   float64 `json:"p90_latency_us"`
	P99LatencyUS   float64 `json:"p99_latency_us"`
	P999LatencyUS  float64 `json:"p999_latency_us"`
	MaxLatencyUS   float64 `json:"max_latency_us"`
}

func runScalingStudy(cfg scalingConfig) {
	shardCounts, err := parseShards(cfg.shardSet)
	if err != nil {
		fail(err)
	}
	procs, err := parseProcsLadder(cfg.procsSet)
	if err != nil {
		fail(err)
	}
	rates, err := parseRates(cfg.ratesSet)
	if err != nil {
		fail(err)
	}
	reqs, err := buildScenario("mixed", cfg.seed, cfg.machines, cfg.requests, 0, 0)
	if err != nil {
		fail(err)
	}

	rep := ScalingReport{
		Scenario: "scaling", CPUs: runtime.NumCPU(), GoVersion: runtime.Version(),
		Machines: cfg.machines, Requests: len(reqs), Drivers: cfg.drivers,
		ProcsLadder: procs, ShardLadder: shardCounts,
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		for _, sc := range shardCounts {
			if sc > cfg.machines {
				fmt.Printf("skip procs=%d shards=%d: more shards than machines\n", p, sc)
				continue
			}
			closed := runSharded(reqs, cfg.machines, sc, cfg.drivers, "")
			closed.Name = fmt.Sprintf("closed-p%d-s%d", p, sc)
			rep.ClosedLoop = append(rep.ClosedLoop, ScalingRun{Procs: p, Run: closed})
			fmt.Printf("%-18s  %10.0f req/s  p50 %7.1fus  p99 %7.1fus  p99.9 %8.1fus\n",
				closed.Name, closed.ThroughputRPS, closed.P50LatencyUS, closed.P99LatencyUS, closed.P999LatencyUS)
			for _, frac := range rates {
				target := closed.ThroughputRPS * frac
				if target <= 0 {
					continue
				}
				ol := runOpenLoop(reqs, cfg.machines, sc, cfg.drivers, target)
				ol.Procs, ol.Shards, ol.TargetFraction = p, sc, frac
				ol.Name = fmt.Sprintf("open-p%d-s%d-r%.2f", p, sc, frac)
				rep.OpenLoop = append(rep.OpenLoop, ol)
				fmt.Printf("%-18s  target %8.0f  achieved %8.0f req/s  p50 %7.1fus  p99 %7.1fus  p99.9 %8.1fus\n",
					ol.Name, ol.TargetRPS, ol.AchievedRPS, ol.P50LatencyUS, ol.P99LatencyUS, ol.P999LatencyUS)
			}
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", cfg.out)
}

// runOpenLoop replays the scenario against the sharded front-end at a
// fixed aggregate arrival rate, split across name-partitioned lanes
// proportionally to lane size. Each lane's k-th slot is scheduled at
// start + k/laneRate; a request that finds its slot in the past is sent
// immediately but still charged from the slot time.
func runOpenLoop(reqs []jobs.Request, machines, shards, drivers int, targetRPS float64) OpenLoopRun {
	s := realloc.NewSharded(shardedOpts(machines, shards, "")...)
	defer s.Close()

	lanes, _ := partitionLanes(reqs, drivers)

	lat := hdr.New()
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, rs := range lanes {
		if len(rs) == 0 {
			continue
		}
		laneRate := targetRPS * float64(len(rs)) / float64(len(reqs))
		interval := time.Duration(float64(time.Second) / laneRate)
		wg.Add(1)
		go func(rs []jobs.Request, interval time.Duration) {
			defer wg.Done()
			skip := make(map[string]bool)
			for k, r := range rs {
				// Skipped deletes still occupy their arrival slot so the
				// offered rate stays on schedule.
				sched := start.Add(time.Duration(k) * interval)
				if r.Kind == jobs.Delete && skip[r.Name] {
					continue
				}
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				_, err := s.Apply(r)
				lat.Record(int64(time.Since(sched)))
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
	ol := OpenLoopRun{
		TargetRPS: targetRPS,
		Requests:  int(snap.Count()),
		Failures:  int(failed.Load()),
	}
	if wall > 0 {
		ol.AchievedRPS = float64(snap.Count()) / wall.Seconds()
	}
	ol.P50LatencyUS = quantileUS(snap, 0.50)
	ol.P90LatencyUS = quantileUS(snap, 0.90)
	ol.P99LatencyUS = quantileUS(snap, 0.99)
	ol.P999LatencyUS = quantileUS(snap, 0.999)
	ol.MaxLatencyUS = float64(snap.Max()) / 1e3
	return ol
}

// parseProcsLadder parses -procs, defaulting to powers of two up to
// NumCPU (plus NumCPU itself when it is not a power of two).
func parseProcsLadder(s string) ([]int, error) {
	if s == "" {
		n := runtime.NumCPU()
		var out []int
		for p := 1; p < n; p *= 2 {
			out = append(out, p)
		}
		return append(out, n), nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", part)
		}
		out = append(out, p)
	}
	return out, nil
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
