package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/jobs"
	"repro/internal/mathx"
)

// TraceConfig parameterizes the cluster-trace-shaped workload: a
// diurnal arrival curve, heavy-tailed window spans drawn from a
// bounded Pareto distribution, and optional hot-key skew that steers a
// tunable fraction of inserts onto names that all route to the same
// shard.
//
// The whole sequence is γ-underallocated globally (same budget tree as
// the base Generator), so any single scheduler stack in this
// repository serves it without failures. The skew is purely a naming
// skew: on a sharded front-end it concentrates load on one shard and
// forces the overflow/retry path, which is the point.
type TraceConfig struct {
	Seed     int64
	Machines int   // pool size (default 8)
	Gamma    int64 // slack enforced by construction (default 8)
	Horizon  int64 // schedule horizon, power of two (default 4096)
	Steps    int   // number of requests (default 4000)
	MinSpan  int64 // narrowest window span generated, a power of two (default 1)
	// Period is the length of one diurnal cycle in requests (default
	// Steps/2, i.e. two simulated days per trace).
	Period int
	// PeakToTrough is the ratio between the peak and trough population
	// targets of the diurnal curve (default 4).
	PeakToTrough int
	// Alpha is the bounded-Pareto tail exponent for window spans
	// (default 1.1). Smaller alpha means heavier tails: more very-wide
	// batch jobs among the narrow service jobs.
	Alpha float64
	// HotFraction in [0, 1] is the fraction of inserts whose names are
	// rejection-sampled until HotRoute accepts them (default 0 — no
	// skew). With skew enabled the remaining inserts are sampled until
	// HotRoute rejects them, so the hot fraction is exact in
	// expectation rather than merely a lower bound.
	HotFraction float64
	// HotRoute reports whether a candidate job name falls in the hot
	// key range — typically a closure over shard.Ring routing the name
	// and comparing against a target shard. Required when HotFraction
	// is positive.
	HotRoute func(name string) bool
}

func (c *TraceConfig) fill() error {
	if c.Machines == 0 {
		c.Machines = 8
	}
	if c.Gamma == 0 {
		c.Gamma = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 4096
	}
	if c.Steps == 0 {
		c.Steps = 4000
	}
	if c.Period == 0 {
		c.Period = c.Steps / 2
		if c.Period < 2 {
			c.Period = 2
		}
	}
	if c.PeakToTrough == 0 {
		c.PeakToTrough = 4
	}
	if c.Alpha == 0 {
		c.Alpha = 1.1
	}
	if c.MinSpan == 0 {
		c.MinSpan = 1
	}
	if !mathx.IsPow2(c.Horizon) {
		return fmt.Errorf("workload: trace horizon %d must be a power of two", c.Horizon)
	}
	if c.Horizon > maxHorizon {
		return fmt.Errorf("workload: trace horizon %d exceeds %d", c.Horizon, maxHorizon)
	}
	if !mathx.IsPow2(c.MinSpan) || c.MinSpan > c.Horizon {
		return fmt.Errorf("workload: trace min span %d must be a power of two <= horizon %d", c.MinSpan, c.Horizon)
	}
	if c.Period < 2 {
		return fmt.Errorf("workload: trace period %d must be >= 2", c.Period)
	}
	if c.PeakToTrough < 1 {
		return fmt.Errorf("workload: trace peak-to-trough ratio %d must be >= 1", c.PeakToTrough)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("workload: trace Pareto alpha %v must be positive", c.Alpha)
	}
	if c.HotFraction < 0 || c.HotFraction > 1 {
		return fmt.Errorf("workload: trace hot fraction %v must be in [0, 1]", c.HotFraction)
	}
	if c.HotFraction > 0 && c.HotRoute == nil {
		return fmt.Errorf("workload: trace hot fraction %v needs a HotRoute predicate", c.HotFraction)
	}
	return nil
}

// traceGen carries the trace generator's state: the shared budget tree
// plus three independent random sub-streams (mix decisions, span
// sampling, hot-name sampling) derived with subSeed so traces with
// nearby seeds do not correlate.
type traceGen struct {
	cfg     TraceConfig
	mixRng  *rand.Rand
	spanRng *rand.Rand
	hotRng  *rand.Rand
	budget  *budgetTree
	active  []jobs.Job
	nextID  int
}

// TraceReplay generates the cluster-trace-shaped request sequence.
func TraceReplay(cfg TraceConfig) ([]jobs.Request, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g := &traceGen{
		cfg:     cfg,
		mixRng:  rand.New(rand.NewSource(subSeed(cfg.Seed, 0))),
		spanRng: rand.New(rand.NewSource(subSeed(cfg.Seed, 1))),
		hotRng:  rand.New(rand.NewSource(subSeed(cfg.Seed, 2))),
		budget:  newBudgetTree(cfg.Horizon, int64(cfg.Machines), cfg.Gamma),
	}
	peak := int(cfg.Horizon * int64(cfg.Machines) / (4 * cfg.Gamma))
	if peak < 1 {
		peak = 1
	}
	trough := peak / cfg.PeakToTrough
	if trough < 1 {
		trough = 1
	}
	reqs := make([]jobs.Request, 0, cfg.Steps)
	for i := 0; len(reqs) < cfg.Steps; i++ {
		// Raised-cosine diurnal target: trough at phase 0, peak at
		// phase Period/2.
		phase := float64(i%cfg.Period) / float64(cfg.Period)
		target := trough + int(float64(peak-trough)*(1-math.Cos(2*math.Pi*phase))/2)
		// Stronger biases than the base Generator's 0.85/0.35: the
		// population must track a moving target, so it needs to drain
		// (and refill) within half a period, not merely drift.
		insertBias := 0.9
		if len(g.active) >= target {
			insertBias = 0.15
		}
		if len(g.active) > 0 && g.mixRng.Float64() > insertBias {
			reqs = append(reqs, g.emitDelete())
			continue
		}
		if r, ok := g.tryInsert(); ok {
			reqs = append(reqs, r)
			continue
		}
		if len(g.active) > 0 {
			reqs = append(reqs, g.emitDelete())
			continue
		}
		return nil, fmt.Errorf("workload: trace budget admitted no jobs (gamma %d too large for horizon %d on %d machines)",
			cfg.Gamma, cfg.Horizon, cfg.Machines)
	}
	return reqs, nil
}

// paretoSpan samples a window span from a bounded Pareto distribution
// over [MinSpan, Horizon] and rounds it down to a power of two so the
// window stays dyadically aligned.
func (g *traceGen) paretoSpan() int64 {
	u := g.spanRng.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	x := float64(g.cfg.MinSpan) * math.Pow(u, -1/g.cfg.Alpha)
	span := int64(x)
	if span < g.cfg.MinSpan {
		span = g.cfg.MinSpan
	}
	if span > g.cfg.Horizon {
		span = g.cfg.Horizon
	}
	return mathx.FloorPow2(span)
}

// nextName samples the next job name, rejection-sampling against
// HotRoute so that a HotFraction share of inserts land in the hot key
// range and the rest stay out of it. Candidate names carry a salt so
// the sampler can probe many names per job ID; the salt that routed
// where we wanted is kept, keeping names deterministic per seed.
func (g *traceGen) nextName() string {
	id := g.nextID
	g.nextID++
	if g.cfg.HotRoute == nil {
		return fmt.Sprintf("trace-%06d", id)
	}
	wantHot := g.hotRng.Float64() < g.cfg.HotFraction
	for attempt := 0; attempt < 256; attempt++ {
		salt := g.hotRng.Int63n(1 << 20)
		name := fmt.Sprintf("trace-%06d-%05x", id, salt)
		if g.cfg.HotRoute(name) == wantHot {
			return name
		}
	}
	// With S shards a hot probe succeeds with probability 1/S per
	// attempt; 256 attempts failing means the predicate is degenerate
	// (accepts ~nothing or ~everything), so just take the last salt.
	return fmt.Sprintf("trace-%06d-%05x", id, g.hotRng.Int63n(1<<20))
}

func (g *traceGen) tryInsert() (jobs.Request, bool) {
	for attempt := 0; attempt < 64; attempt++ {
		span := g.paretoSpan()
		start := mathx.AlignDown(g.spanRng.Int63n(g.cfg.Horizon), span)
		w := jobs.Window{Start: start, End: start + span}
		if !g.budget.tryAdd(w) {
			continue
		}
		name := g.nextName()
		g.active = append(g.active, jobs.Job{Name: name, Window: w})
		return jobs.InsertReq(name, w.Start, w.End), true
	}
	return jobs.Request{}, false
}

func (g *traceGen) emitDelete() jobs.Request {
	i := g.mixRng.Intn(len(g.active))
	j := g.active[i]
	g.active[i] = g.active[len(g.active)-1]
	g.active = g.active[:len(g.active)-1]
	g.budget.remove(j.Window)
	return jobs.DeleteReq(j.Name)
}
