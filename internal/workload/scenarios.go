package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/jobs"
	"repro/internal/mathx"
)

// MixedConfig parameterizes the mixed production workload: wide batch
// jobs, narrow deadline-driven service jobs, and steady insert/delete
// churn, all γ-underallocated by construction so any scheduler stack in
// this repository (and every shard of the sharded front-end, in
// expectation) can serve it.
type MixedConfig struct {
	Seed     int64
	Machines int   // pool size (default 4)
	Gamma    int64 // slack enforced by construction (default 8)
	Horizon  int64 // schedule horizon, power of two (default 4096)
	Steps    int   // number of requests (default 4000)
}

func (c *MixedConfig) fill() error {
	if c.Machines == 0 {
		c.Machines = 4
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
	if c.Machines < 2 {
		// Each class gets its own machine share of the underallocation
		// budget; with a single machine the two shares would double-book
		// it and the sequence would no longer be underallocated.
		return fmt.Errorf("workload: mixed scenario needs >= 2 machines (got %d)", c.Machines)
	}
	if !mathx.IsPow2(c.Horizon) {
		return fmt.Errorf("workload: mixed horizon %d must be a power of two", c.Horizon)
	}
	return nil
}

// Mixed generates the mixed scenario by alternating two underallocated
// generators over a shared horizon: a batch class with wide windows
// (span Horizon/8 .. Horizon) and a service class with narrow windows
// (span 1 .. Horizon/64). Batch jobs dominate the population, service
// jobs dominate the request rate — the shape of a pool serving long
// batch work under a stream of deadline-driven requests.
func Mixed(cfg MixedConfig) ([]jobs.Request, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	narrowMax := cfg.Horizon / 64
	if narrowMax < 1 {
		narrowMax = 1
	}
	wideMin := cfg.Horizon / 8
	if wideMin < 1 {
		wideMin = 1
	}
	// Split the machine budget so each class is underallocated on its
	// own share of the pool; the merged sequence is then underallocated
	// for the whole pool.
	wideMachines := cfg.Machines / 2
	narrowMachines := cfg.Machines - wideMachines
	wide, err := NewGenerator(Config{
		Seed: cfg.Seed, Machines: wideMachines, Gamma: cfg.Gamma,
		Horizon: cfg.Horizon, MinSpan: wideMin, MaxSpan: cfg.Horizon,
	})
	if err != nil {
		return nil, err
	}
	narrow, err := NewGenerator(Config{
		Seed: subSeed(cfg.Seed, 1), Machines: narrowMachines, Gamma: cfg.Gamma,
		Horizon: cfg.Horizon, MinSpan: 1, MaxSpan: narrowMax,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.Seed, 2)))
	reqs := make([]jobs.Request, 0, cfg.Steps)
	for len(reqs) < cfg.Steps {
		// 1-in-4 requests touch the batch class; renaming keeps the two
		// generators' job namespaces disjoint.
		if rng.Intn(4) == 0 {
			reqs = append(reqs, renamed(wide.Next(), "batch-"))
		} else {
			reqs = append(reqs, renamed(narrow.Next(), "svc-"))
		}
	}
	return reqs, nil
}

// renamed prefixes the request's job name with the class tag.
func renamed(r jobs.Request, prefix string) jobs.Request {
	r.Name = prefix + r.Name
	return r
}

// BurstConfig parameterizes the synchronized-wave scenario: the
// population arrives in large waves and departs in large waves, with
// only a small residue surviving between waves. Waves are the worst
// case for per-request admission — every request pays full dispatch
// and trim/repair overhead for work that is identical across the wave
// — and the natural case for batched admission.
type BurstConfig struct {
	Seed int64
	// Machines is the pool size (default 8).
	Machines int
	// Gamma is the slack enforced by construction (default 8).
	Gamma int64
	// Horizon is the schedule horizon, a power of two (default 4096).
	Horizon int64
	// Waves is the number of arrival+departure wave pairs (default 6).
	Waves int
	// WaveSize is the number of jobs per arrival wave (default a
	// quarter of the underallocation budget, Horizon*Machines/(4*Gamma)).
	WaveSize int
}

// Fill applies the documented defaults and validates the config. It is
// exported (unlike the other scenarios' fillers) so drivers can read
// the derived WaveSize before choosing a wave count.
func (c *BurstConfig) Fill() error {
	if c.Machines == 0 {
		c.Machines = 8
	}
	if c.Gamma == 0 {
		c.Gamma = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 4096
	}
	if c.Waves == 0 {
		c.Waves = 6
	}
	if c.WaveSize == 0 {
		c.WaveSize = int(c.Horizon * int64(c.Machines) / (4 * c.Gamma))
		if c.WaveSize < 1 {
			c.WaveSize = 1
		}
	}
	if !mathx.IsPow2(c.Horizon) {
		return fmt.Errorf("workload: burst horizon %d must be a power of two", c.Horizon)
	}
	return nil
}

// Burst generates the synchronized-wave scenario: Waves rounds of
// WaveSize back-to-back arrivals followed by a departure wave that
// drains the population down to a WaveSize/8 residue. Every request is
// drawn through the γ-underallocation budget, so any scheduler stack
// in this repository can serve the whole sequence without failures.
func Burst(cfg BurstConfig) ([]jobs.Request, error) {
	if err := cfg.Fill(); err != nil {
		return nil, err
	}
	g, err := NewGenerator(Config{
		Seed: cfg.Seed, Machines: cfg.Machines, Gamma: cfg.Gamma, Horizon: cfg.Horizon,
	})
	if err != nil {
		return nil, err
	}
	residue := cfg.WaveSize / 8
	var reqs []jobs.Request
	for w := 0; w < cfg.Waves; w++ {
		for k := 0; k < cfg.WaveSize; k++ {
			// Budget exhaustion just shortens the wave; the departure
			// wave restores headroom for the next one.
			if r, ok := g.tryInsert(); ok {
				reqs = append(reqs, r)
			}
		}
		for len(g.active) > residue {
			reqs = append(reqs, g.emitDelete())
		}
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("workload: burst budget admitted no jobs (gamma %d too large for horizon %d on %d machines)",
			cfg.Gamma, cfg.Horizon, cfg.Machines)
	}
	return reqs, nil
}

// ElasticConfig parameterizes the autoscaling scenario: a steady
// workload sized for a base pool, a traffic burst that arrives with a
// scale-up to a peak pool, and a scale-down back to base once the burst
// drains.
type ElasticConfig struct {
	Seed int64
	// BaseMachines is the steady-state pool (default 4).
	BaseMachines int
	// PeakMachines is the scaled-up pool (default 2*BaseMachines).
	PeakMachines int
	// Gamma is the slack enforced by construction (default 8).
	Gamma int64
	// Horizon is the schedule horizon, a power of two (default 4096).
	Horizon int64
	// StepsPerPhase is the request count of each phase (default 1500).
	StepsPerPhase int
}

// ElasticPhase couples a target pool size with the requests to serve at
// that size: the driver resizes the pool to Machines, then replays Reqs.
type ElasticPhase struct {
	// Name labels the phase (steady, burst, drain).
	Name string
	// Machines is the pool size the phase runs at.
	Machines int
	// Reqs is the request sequence of the phase.
	Reqs []jobs.Request
}

func (c *ElasticConfig) fill() error {
	if c.BaseMachines == 0 {
		c.BaseMachines = 4
	}
	if c.PeakMachines == 0 {
		c.PeakMachines = 2 * c.BaseMachines
	}
	if c.Gamma == 0 {
		c.Gamma = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 4096
	}
	if c.StepsPerPhase == 0 {
		c.StepsPerPhase = 1500
	}
	if c.PeakMachines <= c.BaseMachines {
		return fmt.Errorf("workload: elastic peak %d must exceed base %d", c.PeakMachines, c.BaseMachines)
	}
	if !mathx.IsPow2(c.Horizon) {
		return fmt.Errorf("workload: elastic horizon %d must be a power of two", c.Horizon)
	}
	return nil
}

// Elastic generates the autoscaling scenario as three phases:
//
//  1. steady — churn sized for BaseMachines.
//  2. burst  — the pool grows to PeakMachines and a burst class (with
//     its own underallocation budget on the extra machines) arrives on
//     top of the steady churn; the burst fully drains by the phase end.
//  3. drain  — the pool shrinks back to BaseMachines and steady churn
//     continues.
//
// The steady class is γ-underallocated for BaseMachines throughout and
// the burst class for the extra PeakMachines-BaseMachines machines, so
// every phase is underallocated for its pool — and, crucially, the
// active set at the scale-down boundary fits the base pool again, which
// is what keeps shrink evictions re-placeable.
func Elastic(cfg ElasticConfig) ([]ElasticPhase, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	steady, err := NewGenerator(Config{
		Seed: cfg.Seed, Machines: cfg.BaseMachines, Gamma: cfg.Gamma,
		Horizon: cfg.Horizon, Steps: 3 * cfg.StepsPerPhase,
	})
	if err != nil {
		return nil, err
	}
	burst, err := NewGenerator(Config{
		Seed: subSeed(cfg.Seed, 1), Machines: cfg.PeakMachines - cfg.BaseMachines, Gamma: cfg.Gamma,
		Horizon: cfg.Horizon, Steps: cfg.StepsPerPhase,
	})
	if err != nil {
		return nil, err
	}

	steadyReqs := func(n int) []jobs.Request {
		out := make([]jobs.Request, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, renamed(steady.Next(), "steady-"))
		}
		return out
	}

	phase1 := ElasticPhase{Name: "steady", Machines: cfg.BaseMachines, Reqs: steadyReqs(cfg.StepsPerPhase)}

	// Burst phase: interleave steady churn with burst-class requests,
	// then delete every remaining burst job so the pool can shrink.
	rng := rand.New(rand.NewSource(subSeed(cfg.Seed, 2)))
	var p2 []jobs.Request
	for i := 0; i < cfg.StepsPerPhase; i++ {
		if rng.Intn(3) == 0 {
			p2 = append(p2, renamed(steady.Next(), "steady-"))
		} else {
			p2 = append(p2, renamed(burst.Next(), "burst-"))
		}
	}
	for _, j := range burst.Active() {
		p2 = append(p2, jobs.DeleteReq("burst-"+j.Name))
	}
	phase2 := ElasticPhase{Name: "burst", Machines: cfg.PeakMachines, Reqs: p2}

	phase3 := ElasticPhase{Name: "drain", Machines: cfg.BaseMachines, Reqs: steadyReqs(cfg.StepsPerPhase)}
	return []ElasticPhase{phase1, phase2, phase3}, nil
}
