package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/hdr"
	"repro/internal/metrics"
)

// A workload is measured in rounds. One round sets the program up from
// nothing (streams, WAL directories, servers, preload), measures a fixed
// number of requests or a fixed rate for a fixed time, checks the
// outputs, and tears everything down. Rounds repeat until the on-clock
// budget is spent, and each metric is the median over rounds (latency
// quantiles pool the rounds' samples in on-clock order, and req_per_s is
// the median over the rounds' blocks, see blockTimer). Every round of a
// run replays the same streams, so the counters of the paper's cost
// repeat exactly and the rounds time the same work.
type workload struct {
	name string
	why  string
	// usesWAL and usesWire say which layers' micro-measurements belong in
	// the workload's per-layer report; an idle layer reports 0.
	usesWAL, usesWire bool
	round             func(r *run, ts *traceSet) (roundResult, error)
}

// roundResult is what one round measured.
type roundResult struct {
	setup   time.Duration // round start to first on-clock request
	onClock time.Duration // every measured phase
	rates   []float64     // requests a second of each block of the closed-loop part
	lat     []int64       // per-request latency in ns, on-clock order
	cost    metrics.Cost  // summed over costReqs served requests
	served  int
	recover time.Duration // bringing the written state back; see README

	attempted, failed int      // every request handed to the program, preload included
	problems          []string // failed output checks
}

// minRounds: set-up time is a median, so it needs several set-ups.
const minRounds = 3

// run accumulates the rounds of one process.
type run struct {
	seed    int64
	trace   bool
	tmp     string // scratch directory for WALs, inside the checkout
	outDir  string // bench/out, for span dumps
	w       *workload
	rounds  int
	tracedN int

	// From untraced rounds.
	setup, rate, recover []float64
	lat                  []int64
	cost                 metrics.Cost
	served               int

	attempted, failed int
	problems          []string

	// From traced rounds.
	tracedRate []float64
	agg        [numLayers]layerAgg
	rebuilds   int
	trimDur    hdr.Snapshot
	c          counters
}

// counters holds the per-layer sums and samples of the traced rounds.
type counters struct {
	sum     map[string]float64
	samples map[string][]float64
}

func (c *counters) add(name string, v float64) {
	if c.sum == nil {
		c.sum = make(map[string]float64)
	}
	c.sum[name] += v
}

func (c *counters) sample(name string, v float64) {
	if c.samples == nil {
		c.samples = make(map[string][]float64)
	}
	c.samples[name] = append(c.samples[name], v)
}

// ratio is sum[num]/sum[den], and 0 when the layer was idle.
func (c *counters) ratio(num, den string) float64 {
	if c.sum[den] == 0 {
		return 0
	}
	return c.sum[num] / c.sum[den]
}

// roundDir makes a fresh scratch directory for one round.
func (r *run) roundDir() (string, error) {
	dir := filepath.Join(r.tmp, fmt.Sprintf("round-%d", r.rounds))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// measure runs rounds of r.w until `seconds` of on-clock time are spent.
// With tracing on, odd rounds are traced and even rounds are not, so the
// overhead ratio compares neighbours.
func (r *run) measure(seconds float64) error {
	var onClock time.Duration
	for r.rounds < minRounds || onClock.Seconds() < seconds {
		var ts *traceSet
		if r.trace && r.rounds%2 == 1 {
			ts = newTraceSet()
		}
		// Start every round from a collected heap: the previous round's
		// garbage is not this round's cost.
		runtime.GC()
		res, err := r.w.round(r, ts)
		if err != nil {
			return fmt.Errorf("round %d: %w", r.rounds, err)
		}
		r.rounds++
		onClock += res.onClock
		r.attempted += res.attempted
		r.failed += res.failed
		r.problems = append(r.problems, res.problems...)
		fmt.Fprintf(os.Stderr, "bench: round %d traced=%v setup=%.3fs on_clock=%.3fs req_per_s=%.0f recover=%.3fs\n",
			r.rounds, ts != nil, res.setup.Seconds(), res.onClock.Seconds(), median(res.rates), res.recover.Seconds())
		if ts != nil {
			r.tracedN++
			r.tracedRate = append(r.tracedRate, res.rates...)
			agg, rebuilds := ts.totals()
			for l := range agg {
				r.agg[l].add(agg[l])
			}
			r.rebuilds += rebuilds
			r.trimDur.Merge(ts.trimDur.Snapshot())
			if err := ts.appendSpans(filepath.Join(r.outDir, "trace-"+r.w.name+".jsonl")); err != nil {
				return err
			}
			continue
		}
		r.setup = append(r.setup, res.setup.Seconds())
		r.rate = append(r.rate, res.rates...)
		r.recover = append(r.recover, res.recover.Seconds())
		r.lat = append(r.lat, res.lat...)
		r.cost.Add(res.cost)
		r.served += res.served
	}
	return nil
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// blockTimer times a closed loop in blocks of a fixed number of
// completions. req_per_s is the median block's rate, not requests over
// wall time: on the 2-core box this was written on, identical blocks of
// stack_churn ran at 132–139k req/s except for a fifth of them, which a
// neighbour or a collection slowed to 75–110k; a mean moves with how many
// of those a run catches (±10 % between rounds), the median block does not.
type blockTimer struct {
	size  int
	n     int
	t0    time.Time
	rates []float64
}

// start begins a block now; call it when a phase starts.
func (b *blockTimer) start() { b.t0, b.n = time.Now(), 0 }

// done counts one completion.
func (b *blockTimer) done() {
	if b.n++; b.n == b.size {
		now := time.Now()
		b.rates = append(b.rates, float64(b.size)/now.Sub(b.t0).Seconds())
		b.t0, b.n = now, 0
	}
}

// sumRates adds up the k-th blocks of drivers that run side by side and
// so advance through their blocks together: the system's rate is the sum
// of theirs.
func sumRates(drivers []*blockTimer) []float64 {
	var out []float64
	for k := 0; ; k++ {
		sum := 0.0
		for _, d := range drivers {
			if k >= len(d.rates) {
				return out
			}
			sum += d.rates[k]
		}
		out = append(out, sum)
	}
}
