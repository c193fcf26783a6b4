// Command reallocbench replays workload scenarios against the
// sequential Theorem 1 stack and the concurrent sharded front-end, and
// emits a machine-readable benchmark report: throughput, p50/p99
// request latency, and total reallocation/migration costs per
// configuration.
//
// Usage:
//
//	reallocbench                          # mixed scenario, shards {1,4,8}, BENCH_PR1.json
//	reallocbench -scenario cloud -requests 20000
//	reallocbench -shards 1,2,4,8,16 -drivers 16 -out bench.json
//	reallocbench -quick                   # small parameters for smoke runs
//	reallocbench -scenario elastic        # autoscaling: elastic resize vs rebuild, BENCH_PR2.json
//	reallocbench -scenario burst -batch 64  # arrival/departure waves, batched vs
//	                                        # per-request admission, BENCH_PR3.json
//	reallocbench -scenario burst -wal       # WAL-on vs WAL-off durability tax,
//	                                        # BENCH_PR5.json
//	reallocbench -scaling                   # GOMAXPROCS x shard-count scaling
//	                                        # study with open-loop arrival-rate
//	                                        # latency curves, BENCH_PR6.json
//	reallocbench -scenario trace -skew 0.3  # cluster-trace shape: diurnal curve,
//	                                        # Pareto tails, hot-key skew aimed at
//	                                        # one shard, BENCH_TRACE.json
//	reallocbench -scenario adversarial      # trim-threshold walk forcing rebuild
//	                                        # storms, BENCH_ADVERSARIAL.json
//
// The trace and adversarial runs embed a reallocation-cost-over-time
// curve (fixed-resolution buckets over the request stream) in each
// run's JSON, so storms show up as spikes instead of vanishing into
// totals.
//
// Request latencies are recorded into allocation-free HDR histograms
// (internal/hdr), not retained sample slices, so quick and full runs
// report identical quantile semantics and the benchmark driver itself
// stays off the GC profile it measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	realloc "repro"
	"repro/internal/hdr"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Report is the top-level JSON document.
type Report struct {
	Scenario string `json:"scenario"`
	Machines int    `json:"machines"`
	Requests int    `json:"requests"`
	Drivers  int    `json:"drivers"`
	Runs     []Run  `json:"runs"`
	// Compare holds per-run ratios against a prior report (-compare FILE):
	// how this binary's runs stack up against, say, the previous PR's.
	Compare []CompareRow `json:"compare,omitempty"`
}

// Run is one benchmarked configuration.
type Run struct {
	Name          string       `json:"name"`
	Shards        int          `json:"shards"` // 0 = sequential (unsharded) stack
	Batch         int          `json:"batch,omitempty"`
	Drivers       int          `json:"drivers"`
	Served        int          `json:"served"`
	Failures      int          `json:"failures"`
	WallMillis    float64      `json:"wall_ms"`
	ThroughputRPS float64      `json:"throughput_rps"`
	NsPerOp       float64      `json:"ns_per_op"`
	AllocsPerOp   float64      `json:"allocs_per_op"`
	BytesPerOp    float64      `json:"bytes_per_op"`
	P50LatencyUS  float64      `json:"p50_latency_us"`
	P90LatencyUS  float64      `json:"p90_latency_us"`
	P99LatencyUS  float64      `json:"p99_latency_us"`
	P999LatencyUS float64      `json:"p999_latency_us"`
	MaxLatencyUS  float64      `json:"max_latency_us"`
	Reallocations int          `json:"reallocations"`
	Migrations    int          `json:"migrations"`
	Overflow      int          `json:"overflow,omitempty"`
	Curve         []CurvePoint `json:"curve,omitempty"`
	ShardDetail   []ShardStats `json:"shard_detail,omitempty"`
}

// CurvePoint is one bucket of a run's reallocation-cost-over-time
// curve: the requests completed while the bucket was current paid
// Reallocations reassignments and Migrations cross-machine moves.
// Sequential runs bucket by request index; sharded runs bucket by
// completion order across all drivers.
type CurvePoint struct {
	Start         int `json:"start"`
	Requests      int `json:"requests"`
	Reallocations int `json:"reallocations"`
	Migrations    int `json:"migrations"`
}

// recordCurves turns on per-run cost curves; set once in main for the
// scenarios whose whole point is cost-over-time shape.
var recordCurves bool

// orderedReplay turns on the drivers' reorder bound (orderGate); set
// once in main for the scenarios whose feasibility guarantee is
// order-sensitive (trace, adversarial).
var orderedReplay bool

// curveRecorder buckets per-request costs into a fixed number of
// curve points. Concurrent drivers share one recorder: the bucket is
// chosen by an atomic completion counter and the cells are atomics.
type curveRecorder struct {
	width int
	seq   atomic.Int64
	cells []struct{ reqs, reallocs, migr atomic.Int64 }
}

// newCurveRecorder sizes a recorder for `total` requests, or returns
// nil (a no-op recorder) when curves are disabled.
func newCurveRecorder(total int) *curveRecorder {
	if !recordCurves || total <= 0 {
		return nil
	}
	const buckets = 64
	w := (total + buckets - 1) / buckets
	if w < 1 {
		w = 1
	}
	return &curveRecorder{
		width: w,
		cells: make([]struct{ reqs, reallocs, migr atomic.Int64 }, (total+w-1)/w),
	}
}

func (c *curveRecorder) record(cost metrics.Cost) {
	if c == nil {
		return
	}
	i := int(c.seq.Add(1)-1) / c.width
	if i >= len(c.cells) {
		i = len(c.cells) - 1
	}
	c.cells[i].reqs.Add(1)
	c.cells[i].reallocs.Add(int64(cost.Reallocations))
	c.cells[i].migr.Add(int64(cost.Migrations))
}

func (c *curveRecorder) points() []CurvePoint {
	if c == nil {
		return nil
	}
	out := make([]CurvePoint, len(c.cells))
	for i := range c.cells {
		out[i] = CurvePoint{
			Start:         i * c.width,
			Requests:      int(c.cells[i].reqs.Load()),
			Reallocations: int(c.cells[i].reallocs.Load()),
			Migrations:    int(c.cells[i].migr.Load()),
		}
	}
	return out
}

// CompareRow relates one run to the same-named run of a prior report.
type CompareRow struct {
	Name             string  `json:"name"`
	BaseThroughput   float64 `json:"base_throughput_rps"`
	ThroughputRatio  float64 `json:"throughput_ratio"` // this / base; > 1 is faster
	BaseAllocsPerOp  float64 `json:"base_allocs_per_op,omitempty"`
	AllocsPerOpRatio float64 `json:"allocs_per_op_ratio,omitempty"` // this / base; < 1 is leaner
}

// allocSampler brackets a serve loop with runtime.MemStats readings so a
// run can report whole-process allocs/op and bytes/op alongside wall
// time. It measures everything the run allocates — drivers, front-end,
// the scheduler stack — which is exactly the GC pressure a server built
// on this stack would see.
type allocSampler struct{ before runtime.MemStats }

func startAllocSample() *allocSampler {
	s := &allocSampler{}
	runtime.GC()
	runtime.ReadMemStats(&s.before)
	return s
}

// finish folds allocs/op, bytes/op, and ns/op for `ops` operations into r.
func (s *allocSampler) finish(r *Run, wall time.Duration, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops > 0 {
		r.AllocsPerOp = float64(after.Mallocs-s.before.Mallocs) / float64(ops)
		r.BytesPerOp = float64(after.TotalAlloc-s.before.TotalAlloc) / float64(ops)
		r.NsPerOp = float64(wall.Nanoseconds()) / float64(ops)
	}
}

// ShardStats is the per-shard slice of a sharded run. The latency
// columns come from the shard worker's own dispatch-boundary HDR
// histogram (enqueue to served), not the client-side clock.
type ShardStats struct {
	Shard         int     `json:"shard"`
	Machines      int     `json:"machines"`
	Requests      int     `json:"requests"`
	Failures      int     `json:"failures"`
	Rerouted      int     `json:"rerouted"`
	Overflow      int     `json:"overflow"`
	Batches       int     `json:"batches"`
	Active        int     `json:"active"`
	Reallocations int     `json:"reallocations"`
	Migrations    int     `json:"migrations"`
	P50DispatchUS float64 `json:"p50_dispatch_us,omitempty"`
	P99DispatchUS float64 `json:"p99_dispatch_us,omitempty"`
	MaxDispatchUS float64 `json:"max_dispatch_us,omitempty"`
}

func main() {
	var (
		scenario = flag.String("scenario", "mixed", "workload scenario: mixed, cloud, clinic, sliding, burst, elastic, trace, or adversarial")
		machines = flag.Int("machines", 8, "total machine pool")
		requests = flag.Int("requests", 20000, "request count (scenario permitting)")
		shardSet = flag.String("shards", "1,4,8", "comma-separated shard counts for the sharded runs")
		drivers  = flag.Int("drivers", 8, "concurrent driver goroutines for the sharded runs")
		batch    = flag.Int("batch", 0, "add batched (ApplyBatch) runs with this chunk size; 0 disables (burst defaults to 512)")
		walOn    = flag.Bool("wal", false, "add WAL-enabled twins of the sharded runs (group-commit durability); with -scenario burst the default output becomes BENCH_PR5.json")
		seed     = flag.Int64("seed", 1, "scenario seed")
		out      = flag.String("out", "BENCH_PR1.json", "output JSON path")
		compare  = flag.String("compare", "", "prior report JSON to compare against (adds a compare section)")
		quick    = flag.Bool("quick", false, "small parameters for smoke runs")
		memprof  = flag.String("memprofile", "", "write an allocation profile of the runs to this file")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the runs to this file")
		scaling  = flag.Bool("scaling", false, "run the GOMAXPROCS x shard-count scaling study (closed-loop + open-loop arrival-rate curves); default output BENCH_PR6.json")
		procsSet = flag.String("procs", "", "comma-separated GOMAXPROCS ladder for -scaling (default: powers of two up to NumCPU)")
		ratesSet = flag.String("rates", "0.5,0.75,0.9", "open-loop arrival rates for -scaling, as fractions of the measured closed-loop throughput")
		skew     = flag.Float64("skew", 0.3, "trace scenario: fraction of inserts whose names route to one shard of the first multi-shard run")
	)
	flag.Parse()

	if *quick {
		*requests = 2000
	}
	if *scaling {
		if *out == "BENCH_PR1.json" {
			*out = "BENCH_PR6.json"
		}
		runScalingStudy(scalingConfig{
			seed: *seed, machines: *machines, requests: *requests,
			drivers: *drivers, shardSet: *shardSet,
			procsSet: *procsSet, ratesSet: *ratesSet, out: *out,
		})
		return
	}
	if *scenario == "burst" {
		// The burst scenario exists to compare batched vs per-request
		// admission; default the batch size and the report name. The
		// default chunk is sized for the shard fan-out: a driver's chunk
		// spreads across every shard, so chunks well above the shard
		// count amortize the per-shard round trip.
		if *batch == 0 {
			*batch = 512
		}
		if *out == "BENCH_PR1.json" {
			*out = "BENCH_PR4.json"
		}
		if *walOn {
			*out = strings.Replace(*out, "BENCH_PR4.json", "BENCH_PR5.json", 1)
		}
	}
	if *scenario == "elastic" {
		if *out == "BENCH_PR1.json" {
			*out = "BENCH_PR2.json"
		}
		// The elastic scenario benchmarks one sharded scheduler through
		// pool resizes: it runs at the first -shards value when the flag
		// is given explicitly, else at 4 shards.
		elasticShards := 4
		if shardsFlagSet() {
			counts, err := parseShards(*shardSet)
			if err != nil {
				fail(err)
			}
			elasticShards = counts[0]
		}
		runElasticScenario(*seed, *machines, *requests, *drivers, elasticShards, *out)
		return
	}
	switch *scenario {
	case "trace":
		recordCurves, orderedReplay = true, true
		if *out == "BENCH_PR1.json" {
			*out = "BENCH_TRACE.json"
		}
	case "adversarial":
		recordCurves, orderedReplay = true, true
		if *out == "BENCH_PR1.json" {
			*out = "BENCH_ADVERSARIAL.json"
		}
	}
	shardCountsForSkew, err := parseShards(*shardSet)
	if err != nil {
		fail(err)
	}
	reqs, err := buildScenario(*scenario, *seed, *machines, *requests, *skew, firstMultiShard(shardCountsForSkew))
	if err != nil {
		fail(err)
	}
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	shardCounts, err := parseShards(*shardSet)
	if err != nil {
		fail(err)
	}

	rep := Report{Scenario: *scenario, Machines: *machines, Requests: len(reqs), Drivers: *drivers}

	printRun := func(r Run) {
		fmt.Printf("%-20s  %10.0f req/s  %8.0f ns/op  %6.1f allocs/op  p50 %7.1fus  p90 %7.1fus  p99 %7.1fus  p99.9 %8.1fus  max %8.1fus  realloc %d  migr %d  fail %d  overflow %d\n",
			r.Name, r.ThroughputRPS, r.NsPerOp, r.AllocsPerOp, r.P50LatencyUS, r.P90LatencyUS,
			r.P99LatencyUS, r.P999LatencyUS, r.MaxLatencyUS,
			r.Reallocations, r.Migrations, r.Failures, r.Overflow)
	}
	seqRun := runSequential(reqs, *machines)
	rep.Runs = append(rep.Runs, seqRun)
	printRun(seqRun)
	if *batch > 1 {
		r := runSequentialBatched(reqs, *machines, *batch)
		rep.Runs = append(rep.Runs, r)
		printRun(r)
	}

	for _, s := range shardCounts {
		r := runSharded(reqs, *machines, s, *drivers, "")
		rep.Runs = append(rep.Runs, r)
		printRun(r)
		if *walOn {
			w := runSharded(reqs, *machines, s, *drivers, walTempDir())
			rep.Runs = append(rep.Runs, w)
			printRun(w)
		}
		if *batch > 1 {
			b := runShardedBatched(reqs, *machines, s, *drivers, *batch, "")
			rep.Runs = append(rep.Runs, b)
			printRun(b)
			if *walOn {
				w := runShardedBatched(reqs, *machines, s, *drivers, *batch, walTempDir())
				rep.Runs = append(rep.Runs, w)
				printRun(w)
			}
		}
	}

	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fail(err)
		}
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fail(err)
		}
		f.Close()
		fmt.Printf("wrote allocation profile to %s\n", *memprof)
	}

	if *compare != "" {
		rows, err := compareReports(*compare, rep.Runs)
		if err != nil {
			fail(err)
		}
		rep.Compare = rows
		for _, row := range rows {
			fmt.Printf("vs %s: %-20s  throughput x%.2f  allocs/op x%.2f\n",
				*compare, row.Name, row.ThroughputRatio, row.AllocsPerOpRatio)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, dir := range walScratch {
		os.RemoveAll(dir)
	}
}

// compareReports loads a prior report and relates this run's numbers to
// its same-named runs. Runs without a counterpart are skipped.
func compareReports(path string, runs []Run) ([]CompareRow, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("compare %s: %w", path, err)
	}
	byName := make(map[string]Run, len(base.Runs))
	for _, r := range base.Runs {
		byName[r.Name] = r
	}
	var rows []CompareRow
	for _, r := range runs {
		b, ok := byName[r.Name]
		if !ok || b.ThroughputRPS == 0 {
			continue
		}
		row := CompareRow{
			Name:            r.Name,
			BaseThroughput:  b.ThroughputRPS,
			ThroughputRatio: r.ThroughputRPS / b.ThroughputRPS,
		}
		if b.AllocsPerOp > 0 {
			row.BaseAllocsPerOp = b.AllocsPerOp
			row.AllocsPerOpRatio = r.AllocsPerOp / b.AllocsPerOp
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// firstMultiShard picks the shard count the trace scenario's skew aims
// at: the first run with >1 shard (routing a hot fraction to "shard 0"
// of a 1-shard run would be meaningless).
func firstMultiShard(counts []int) int {
	for _, c := range counts {
		if c > 1 {
			return c
		}
	}
	return 0
}

func buildScenario(name string, seed int64, machines, requests int, skew float64, skewShards int) ([]jobs.Request, error) {
	switch name {
	case "trace":
		cfg := workload.TraceConfig{
			Seed: seed, Machines: machines, Horizon: 1 << 13, Steps: requests,
		}
		if skew > 0 && skewShards > 1 {
			// The sharded runs use the default routing policy, which is
			// exactly NewRing(shards, DefaultReplicas) — an identical
			// driver-side ring aims the hot keys at shard 0 of the first
			// multi-shard run.
			ring := shard.NewRing(skewShards, shard.DefaultReplicas)
			cfg.HotFraction = skew
			cfg.HotRoute = func(name string) bool { return ring.Route(name, skewShards) == 0 }
		}
		return workload.TraceReplay(cfg)
	case "adversarial":
		cfg := workload.AdversarialConfig{
			Seed: seed, Machines: machines, Horizon: 1 << 12,
		}
		// Scale the wave count to the requested sequence length: each
		// cycle is roughly 2x the default peak population in requests.
		peak := int(cfg.Horizon) * machines / 16
		if cycles := requests / (2 * peak); cycles > 0 {
			cfg.Cycles = cycles
		} else {
			cfg.Cycles = 1
		}
		return workload.Adversarial(cfg)
	case "mixed":
		return workload.Mixed(workload.MixedConfig{
			Seed: seed, Machines: machines, Horizon: 1 << 14, Steps: requests,
		})
	case "cloud":
		return workload.Cloud(workload.CloudConfig{
			Seed: seed, Machines: machines, Steps: requests,
		})
	case "clinic":
		return workload.Clinic(workload.ClinicConfig{Seed: seed})
	case "sliding":
		return workload.Sliding(workload.SlidingConfig{Seed: seed, Steps: requests})
	case "burst":
		cfg := workload.BurstConfig{Seed: seed, Machines: machines}
		if err := (&cfg).Fill(); err != nil {
			return nil, err
		}
		// Scale the wave count to the requested sequence length; each
		// wave pair is roughly 2*WaveSize requests.
		if waves := requests / (2 * cfg.WaveSize); waves > 0 {
			cfg.Waves = waves
		} else {
			cfg.Waves = 1
		}
		return workload.Burst(cfg)
	default:
		return nil, fmt.Errorf("unknown scenario %q (want mixed, cloud, clinic, sliding, burst, elastic, trace, or adversarial)", name)
	}
}

// shardsFlagSet reports whether -shards was passed explicitly.
func shardsFlagSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "shards" {
			set = true
		}
	})
	return set
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// runSequential replays the scenario single-threaded against the plain
// Theorem 1 stack.
func runSequential(reqs []jobs.Request, machines int) Run {
	s := realloc.New(realloc.WithMachines(machines))
	lat := hdr.New()
	failed := make(map[string]bool)
	curve := newCurveRecorder(len(reqs))
	var reallocs, migrations, failures, served int
	mem := startAllocSample()
	start := time.Now()
	for _, r := range reqs {
		if r.Kind == jobs.Delete && failed[r.Name] {
			continue
		}
		t0 := time.Now()
		c, err := realloc.Apply(s, r)
		lat.Record(int64(time.Since(t0)))
		if err != nil {
			failures++
			if r.Kind == jobs.Insert {
				failed[r.Name] = true
			}
			continue
		}
		served++
		reallocs += c.Reallocations
		migrations += c.Migrations
		curve.record(c)
	}
	wall := time.Since(start)
	run := Run{
		Name: "sequential", Shards: 0, Drivers: 1,
		Served: served, Failures: failures,
		Reallocations: reallocs, Migrations: migrations,
		Curve: curve.points(),
	}
	mem.finish(&run, wall, int(lat.Count()))
	return finishRun(run, wall, lat.Snapshot())
}

// runSequentialBatched replays the scenario single-threaded through the
// plain stack's bulk path in chunks of `batch`. Each request in a chunk
// is charged the chunk's wall time as its latency — that is what a
// caller queueing behind the batch observes.
func runSequentialBatched(reqs []jobs.Request, machines, batch int) Run {
	s := realloc.New(realloc.WithMachines(machines))
	lat := hdr.New()
	failed := make(map[string]bool)
	curve := newCurveRecorder(len(reqs))
	var reallocs, migrations, failures, served int
	mem := startAllocSample()
	start := time.Now()
	for off := 0; off < len(reqs); off += batch {
		end := off + batch
		if end > len(reqs) {
			end = len(reqs)
		}
		chunk := filterFailed(reqs[off:end], failed)
		if len(chunk) == 0 {
			continue
		}
		t0 := time.Now()
		costs, err := realloc.ApplyBatch(s, chunk)
		lat.RecordN(int64(time.Since(t0)), uint64(len(chunk)))
		var be *realloc.BatchError
		if err != nil {
			be, _ = err.(*realloc.BatchError)
		}
		for i, r := range chunk {
			if be != nil && be.At(i) != nil {
				failures++
				if r.Kind == jobs.Insert {
					failed[r.Name] = true
				}
				continue
			}
			served++
			reallocs += costs[i].Reallocations
			migrations += costs[i].Migrations
			curve.record(costs[i])
		}
	}
	wall := time.Since(start)
	run := Run{
		Name: fmt.Sprintf("sequential-batch%d", batch), Shards: 0, Batch: batch, Drivers: 1,
		Served: served, Failures: failures,
		Reallocations: reallocs, Migrations: migrations,
		Curve: curve.points(),
	}
	mem.finish(&run, wall, int(lat.Count()))
	return finishRun(run, wall, lat.Snapshot())
}

// filterFailed drops deletes of jobs whose insert already failed.
func filterFailed(chunk []jobs.Request, failed map[string]bool) []jobs.Request {
	out := make([]jobs.Request, 0, len(chunk))
	for _, r := range chunk {
		if r.Kind == jobs.Delete && failed[r.Name] {
			continue
		}
		out = append(out, r)
	}
	return out
}

// walTempDir allocates a scratch WAL directory for one durable run; it
// is removed when the process exits normally.
func walTempDir() string {
	dir, err := os.MkdirTemp("", "reallocbench-wal-*")
	if err != nil {
		fail(err)
	}
	walScratch = append(walScratch, dir)
	return dir
}

var walScratch []string

// partitionLanes splits the request stream across driver lanes,
// keeping every request for a given name in one lane (a delete must
// trail its insert) and assigning names to lanes round-robin in order
// of first appearance. The lanes used to be chosen by hashing the
// name — the same hash family the scheduler's consistent-hash ring
// routes by — so a workload deliberately skewed against the ring
// (the trace scenario's hot keys) was accidentally skewed against
// the driver too, and the overloaded hot lanes lagged hundreds of
// requests behind the cold ones. Round-robin balances lane load by
// construction, whatever the workload's key distribution. The second
// return value carries each lane request's index in the original
// stream, for the drivers that bound replay reordering (orderGate).
func partitionLanes(reqs []jobs.Request, drivers int) ([][]jobs.Request, [][]int) {
	lanes := make([][]jobs.Request, drivers)
	idxs := make([][]int, drivers)
	laneOf := make(map[string]int, len(reqs))
	next := 0
	for i, r := range reqs {
		lane, ok := laneOf[r.Name]
		if !ok {
			lane = next
			laneOf[r.Name] = lane
			next = (next + 1) % drivers
		}
		lanes[lane] = append(lanes[lane], r)
		idxs[lane] = append(idxs[lane], i)
	}
	return lanes, idxs
}

// orderGate bounds how far concurrent lanes may run ahead of the
// replay's prefix frontier — the largest f such that requests 0..f-1
// have all been applied (or skipped). The workload generators
// guarantee γ-underallocation per PREFIX of the request stream; an
// unboundedly reordered replay can hold an active set no prefix ever
// held — inserts from step 800 alive alongside jobs the generator
// deleted by step 200 — which transiently exceeds the budget and
// rejects requests the scheduler serves in any near-order replay
// (the skewed trace deterministically lost one request this way).
// Keeping every in-flight request within `drift` of the frontier
// caps that excess at a sliver the generators' slack absorbs, while
// all lanes still run concurrently inside the window. Only the
// order-sensitive scenarios pay for the gate: elsewhere it is nil
// and the drivers' hot loops are untouched.
type orderGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	applied  []bool
	frontier int
	drift    int
}

// orderDrift is how far (in stream indexes) any in-flight request may
// run ahead of the replay's prefix frontier. 32 is tight enough that
// the full-size skewed trace replays cleanly, yet wide enough to keep
// every lane busy inside the window.
const orderDrift = 32

// newOrderGate returns a gate for `total` requests, or nil (a no-op)
// when the scenario's replay is not order-sensitive. Waiting is
// deadlock-free for any drift as long as each lane waits on the
// smallest unapplied index it holds — the lane owning the global
// smallest has it as its frontier and never blocks. The chunked driver
// therefore waits on a chunk's FIRST index and bounds chunks to one
// batch-sized stream window, rather than demanding a drift that covers
// a whole chunk's stream span.
func newOrderGate(total, drift int) *orderGate {
	if !orderedReplay || total <= 0 {
		return nil
	}
	g := &orderGate{applied: make([]bool, total), drift: drift}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// wait blocks until the frontier is within drift of idx. The lane
// holding the smallest unapplied index never blocks (its index IS the
// frontier), so the gate cannot deadlock.
func (g *orderGate) wait(idx int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	for g.frontier < idx-g.drift {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// done marks idx applied and advances the frontier across any newly
// contiguous prefix, waking lanes that were waiting on it. Skipped
// requests (deletes of failed inserts) must be marked too, or the
// frontier stalls forever.
func (g *orderGate) done(idx int) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.applied[idx] = true
	moved := false
	for g.frontier < len(g.applied) && g.applied[g.frontier] {
		g.frontier++
		moved = true
	}
	if moved {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// shardedOpts builds the sharded scheduler options of one run; a
// non-empty walDir turns on group-commit durability.
func shardedOpts(machines, shards int, walDir string) []realloc.Option {
	opts := []realloc.Option{realloc.WithMachines(machines), realloc.WithShards(shards)}
	if walDir != "" {
		opts = append(opts, realloc.WithWAL(walDir))
	}
	return opts
}

// runShardedBatched replays the scenario against the sharded front-end
// from `drivers` concurrent goroutines, each carving its name-
// partitioned lane into chunks of `batch` served via ApplyBatch. A
// non-empty walDir appends every batch to a write-ahead log before it
// is acknowledged (the "-wal" twin runs).
func runShardedBatched(reqs []jobs.Request, machines, shards, drivers, batch int, walDir string) Run {
	s := realloc.NewSharded(shardedOpts(machines, shards, walDir)...)
	defer s.Close()

	lanes, laneIdxs := partitionLanes(reqs, drivers)
	gate := newOrderGate(len(reqs), orderDrift)

	lat := hdr.New() // concurrent-safe: all lanes record into one histogram
	curve := newCurveRecorder(len(reqs))
	var wg sync.WaitGroup
	mem := startAllocSample()
	start := time.Now()
	for li, rs := range lanes {
		wg.Add(1)
		go func(rs []jobs.Request, idxs []int) {
			defer wg.Done()
			failed := make(map[string]bool)
			for off := 0; off < len(rs); {
				end := off + batch
				if end > len(rs) {
					end = len(rs)
				}
				if gate != nil {
					// A lane's requests are spread across the whole
					// stream, so a chunk of `batch` lane requests spans
					// ~batch*drivers stream indexes — far more reordering
					// than the gate's drift tolerates (and waiting out a
					// whole chunk's span can deadlock lanes against each
					// other). Bound each chunk to one global window of
					// orderDrift stream indexes instead: the lanes'
					// chunks then tile the stream in drift-sized epochs,
					// and since the gate only waits on a chunk's first
					// index, replay stays within ~2*orderDrift of stream
					// order whatever the batch size — at the cost of
					// smaller chunks (~orderDrift/drivers requests each)
					// for the order-sensitive scenarios only.
					epochEnd := (idxs[off]/orderDrift + 1) * orderDrift
					end = off + sort.SearchInts(idxs[off:end], epochEnd)
				}
				chunk := filterFailed(rs[off:end], failed)
				if len(chunk) == 0 {
					for _, idx := range idxs[off:end] {
						gate.done(idx)
					}
					off = end
					continue
				}
				gate.wait(idxs[off])
				t0 := time.Now()
				costs, err := s.ApplyBatch(chunk)
				lat.RecordN(int64(time.Since(t0)), uint64(len(chunk)))
				var be *realloc.BatchError
				if err != nil {
					be, _ = err.(*realloc.BatchError)
				}
				for i, r := range chunk {
					if be != nil && be.At(i) != nil {
						if r.Kind == jobs.Insert {
							failed[r.Name] = true
						}
						continue
					}
					curve.record(costs[i])
				}
				for _, idx := range idxs[off:end] {
					gate.done(idx)
				}
				off = end
			}
		}(rs, laneIdxs[li])
	}
	wg.Wait()
	wall := time.Since(start)

	rep := s.Report()
	tot := rep.Total()
	run := Run{
		Name:          walSuffix(fmt.Sprintf("sharded-%d-batch%d", shards, batch), walDir),
		Shards:        shards,
		Batch:         batch,
		Drivers:       drivers,
		Served:        rep.Served(),
		Failures:      tot.Failures,
		Overflow:      tot.Overflow,
		Reallocations: tot.Cost.Reallocations,
		Migrations:    tot.Cost.Migrations,
		Curve:         curve.points(),
	}
	mem.finish(&run, wall, int(lat.Count()))
	run.ShardDetail = shardDetail(rep.Shards)
	return finishRun(run, wall, lat.Snapshot())
}

// walSuffix appends "-wal" to a run name when the run was durable.
func walSuffix(name, walDir string) string {
	if walDir != "" {
		return name + "-wal"
	}
	return name
}

// runSharded replays the scenario against the sharded front-end from
// `drivers` concurrent goroutines, partitioning requests by job name so
// each job's insert/delete order is preserved within its lane. A
// non-empty walDir appends every request to a write-ahead log before it
// is acknowledged (the "-wal" twin runs).
func runSharded(reqs []jobs.Request, machines, shards, drivers int, walDir string) Run {
	s := realloc.NewSharded(shardedOpts(machines, shards, walDir)...)
	defer s.Close()

	lanes, laneIdxs := partitionLanes(reqs, drivers)
	gate := newOrderGate(len(reqs), orderDrift)

	lat := hdr.New() // concurrent-safe: all lanes record into one histogram
	curve := newCurveRecorder(len(reqs))
	var wg sync.WaitGroup
	mem := startAllocSample()
	start := time.Now()
	for li, rs := range lanes {
		wg.Add(1)
		go func(rs []jobs.Request, idxs []int) {
			defer wg.Done()
			failed := make(map[string]bool)
			for k, r := range rs {
				if r.Kind == jobs.Delete && failed[r.Name] {
					gate.done(idxs[k])
					continue
				}
				gate.wait(idxs[k])
				t0 := time.Now()
				c, err := s.Apply(r)
				lat.Record(int64(time.Since(t0)))
				gate.done(idxs[k])
				if err != nil {
					if r.Kind == jobs.Insert {
						failed[r.Name] = true
					}
					continue
				}
				curve.record(c)
			}
		}(rs, laneIdxs[li])
	}
	wg.Wait()
	wall := time.Since(start)

	rep := s.Report()
	tot := rep.Total()
	run := Run{
		Name:          walSuffix(fmt.Sprintf("sharded-%d", shards), walDir),
		Shards:        shards,
		Drivers:       drivers,
		Served:        rep.Served(),
		Failures:      tot.Failures,
		Overflow:      tot.Overflow,
		Reallocations: tot.Cost.Reallocations,
		Migrations:    tot.Cost.Migrations,
		Curve:         curve.points(),
	}
	mem.finish(&run, wall, int(lat.Count()))
	run.ShardDetail = shardDetail(rep.Shards)
	return finishRun(run, wall, lat.Snapshot())
}

// finishRun folds wall time, throughput, and the client-observed
// latency quantiles into the run.
func finishRun(r Run, wall time.Duration, lat hdr.Snapshot) Run {
	r.WallMillis = float64(wall.Microseconds()) / 1e3
	if wall > 0 {
		r.ThroughputRPS = float64(lat.Count()) / wall.Seconds()
	}
	r.P50LatencyUS = quantileUS(lat, 0.50)
	r.P90LatencyUS = quantileUS(lat, 0.90)
	r.P99LatencyUS = quantileUS(lat, 0.99)
	r.P999LatencyUS = quantileUS(lat, 0.999)
	r.MaxLatencyUS = float64(lat.Max()) / 1e3
	return r
}

// quantileUS returns the q-quantile of a latency histogram in
// microseconds.
func quantileUS(l hdr.Snapshot, q float64) float64 {
	if l.Count() == 0 {
		return 0
	}
	return float64(l.Quantile(q)) / 1e3
}

// shardDetail converts a report's per-shard aggregates into JSON rows,
// including each worker's dispatch-boundary latency quantiles.
func shardDetail(shards []metrics.ShardCost) []ShardStats {
	out := make([]ShardStats, 0, len(shards))
	for _, sc := range shards {
		st := ShardStats{
			Shard: sc.Shard, Machines: sc.Machines, Requests: sc.Requests,
			Failures: sc.Failures, Rerouted: sc.Rerouted, Overflow: sc.Overflow,
			Batches: sc.Batches, Active: sc.Active,
			Reallocations: sc.Cost.Reallocations, Migrations: sc.Cost.Migrations,
		}
		if sc.Latency.Count() > 0 {
			st.P50DispatchUS = quantileUS(sc.Latency, 0.50)
			st.P99DispatchUS = quantileUS(sc.Latency, 0.99)
			st.MaxDispatchUS = float64(sc.Latency.Max()) / 1e3
		}
		out = append(out, st)
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reallocbench:", err)
	os.Exit(2)
}

// --- elastic scenario: autoscaling with elastic resize vs rebuild ------------

// ElasticReport is the BENCH_PR2.json document: the same autoscaling
// workload served twice — once by the elastic resize control path, once
// by tearing the scheduler down and rebuilding it at the new size.
type ElasticReport struct {
	Scenario     string       `json:"scenario"`
	Shards       int          `json:"shards"`
	BaseMachines int          `json:"base_machines"`
	PeakMachines int          `json:"peak_machines"`
	Requests     int          `json:"requests"`
	Drivers      int          `json:"drivers"`
	Elastic      ElasticSide  `json:"elastic"`
	Rebuild      ElasticSide  `json:"rebuild"`
	Resizes      []ResizeStat `json:"resizes"`
}

// ElasticSide aggregates one strategy's run.
type ElasticSide struct {
	Phases []PhaseStat `json:"phases"`
	// FailedRequests must be zero for a well-formed scenario.
	FailedRequests int `json:"failed_requests"`
	// MovedJobs is the migration bill of the pool-size changes: evicted
	// re-placements for the elastic side, full re-inserts for the
	// rebuild side.
	MovedJobs     int     `json:"moved_jobs"`
	ResizeMillis  float64 `json:"resize_ms"`
	WallMillis    float64 `json:"wall_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// PhaseStat is one phase of one strategy.
type PhaseStat struct {
	Name          string  `json:"name"`
	Machines      int     `json:"machines"`
	Requests      int     `json:"requests"`
	Failed        int     `json:"failed"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50LatencyUS  float64 `json:"p50_latency_us"`
	P99LatencyUS  float64 `json:"p99_latency_us"`
}

// ResizeStat mirrors realloc.ResizeCost for the JSON report.
type ResizeStat struct {
	Shard         int `json:"shard"`
	Delta         int `json:"delta"`
	Evicted       int `json:"evicted"`
	Reinserted    int `json:"reinserted"`
	Dropped       int `json:"dropped"`
	Reallocations int `json:"reallocations"`
	Migrations    int `json:"migrations"`
}

func runElasticScenario(seed int64, machines, requests, drivers, shards int, out string) {
	steps := requests / 3
	if steps < 200 {
		steps = 200
	}
	phases, err := workload.Elastic(workload.ElasticConfig{
		Seed: seed, BaseMachines: machines, PeakMachines: 2 * machines, StepsPerPhase: steps,
	})
	if err != nil {
		fail(err)
	}
	total := 0
	for _, p := range phases {
		total += len(p.Reqs)
	}
	rep := ElasticReport{
		Scenario: "elastic", Shards: shards,
		BaseMachines: machines, PeakMachines: 2 * machines,
		Requests: total, Drivers: drivers,
	}

	// Elastic side: one scheduler, resized in place at phase boundaries.
	es := realloc.NewSharded(realloc.WithMachines(machines), realloc.WithShards(shards))
	eStart := time.Now()
	for _, p := range phases {
		r0 := time.Now()
		rc, err := es.Resize(p.Machines)
		if err != nil {
			fail(fmt.Errorf("elastic resize to %d: %w", p.Machines, err))
		}
		rep.Elastic.ResizeMillis += ms(time.Since(r0))
		rep.Elastic.MovedJobs += rc.Cost.Migrations
		ps := servePhase(es, p, drivers)
		rep.Elastic.Phases = append(rep.Elastic.Phases, ps)
		rep.Elastic.FailedRequests += ps.Failed
		fmt.Printf("elastic %-7s  %2d machines  %8.0f req/s  p99 %7.1fus  fail %d  resize-migr %d\n",
			ps.Name, ps.Machines, ps.ThroughputRPS, ps.P99LatencyUS, ps.Failed, rc.Cost.Migrations)
	}
	rep.Elastic.WallMillis = ms(time.Since(eStart))
	for _, rc := range es.Report().Resizes {
		rep.Resizes = append(rep.Resizes, ResizeStat{
			Shard: rc.Shard, Delta: rc.Delta, Evicted: rc.Evicted,
			Reinserted: rc.Reinserted, Dropped: rc.Dropped,
			Reallocations: rc.Cost.Reallocations, Migrations: rc.Cost.Migrations,
		})
	}
	es.Close()

	// Rebuild side: same phases, but every pool-size change tears the
	// scheduler down and re-inserts the whole active set at the new size
	// — every resident job pays a move.
	rs := realloc.NewSharded(realloc.WithMachines(machines), realloc.WithShards(shards))
	rStart := time.Now()
	cur := machines
	for _, p := range phases {
		if p.Machines != cur {
			r0 := time.Now()
			snap := rs.Snapshot()
			rs.Close()
			rs = realloc.NewSharded(realloc.WithMachines(p.Machines), realloc.WithShards(shards))
			for _, j := range snap.Jobs {
				if _, err := rs.Insert(j); err != nil {
					fail(fmt.Errorf("rebuild reinsert %q: %w", j.Name, err))
				}
			}
			rep.Rebuild.MovedJobs += len(snap.Jobs)
			rep.Rebuild.ResizeMillis += ms(time.Since(r0))
			cur = p.Machines
		}
		ps := servePhase(rs, p, drivers)
		rep.Rebuild.Phases = append(rep.Rebuild.Phases, ps)
		rep.Rebuild.FailedRequests += ps.Failed
		fmt.Printf("rebuild %-7s  %2d machines  %8.0f req/s  p99 %7.1fus  fail %d\n",
			ps.Name, ps.Machines, ps.ThroughputRPS, ps.P99LatencyUS, ps.Failed)
	}
	rep.Rebuild.WallMillis = ms(time.Since(rStart))
	rs.Close()

	for i := range []int{0, 1} {
		side := []*ElasticSide{&rep.Elastic, &rep.Rebuild}[i]
		if side.WallMillis > 0 {
			side.ThroughputRPS = float64(total) / (side.WallMillis / 1e3)
		}
	}

	fmt.Printf("moved jobs at pool changes: elastic %d vs rebuild %d\n",
		rep.Elastic.MovedJobs, rep.Rebuild.MovedJobs)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s\n", out)
}

// servePhase replays one phase from `drivers` goroutines, partitioning
// requests by job name so each job's insert/delete order is preserved
// within its lane.
func servePhase(s *realloc.Sharded, p workload.ElasticPhase, drivers int) PhaseStat {
	lanes, _ := partitionLanes(p.Reqs, drivers)
	lat := hdr.New()
	var failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, rs := range lanes {
		wg.Add(1)
		go func(rs []jobs.Request) {
			defer wg.Done()
			skip := make(map[string]bool)
			for _, r := range rs {
				if r.Kind == jobs.Delete && skip[r.Name] {
					continue
				}
				t0 := time.Now()
				_, err := s.Apply(r)
				lat.Record(int64(time.Since(t0)))
				if err != nil {
					failed.Add(1)
					if r.Kind == jobs.Insert {
						skip[r.Name] = true
					}
				}
			}
		}(rs)
	}
	wg.Wait()
	wall := time.Since(start)
	snap := lat.Snapshot()
	ps := PhaseStat{
		Name: p.Name, Machines: p.Machines,
		Requests: int(snap.Count()), Failed: int(failed.Load()),
		P50LatencyUS: quantileUS(snap, 0.50),
		P99LatencyUS: quantileUS(snap, 0.99),
	}
	if wall > 0 {
		ps.ThroughputRPS = float64(snap.Count()) / wall.Seconds()
	}
	return ps
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
