package workload

import (
	"fmt"

	"repro/internal/jobs"
	"repro/internal/mathx"
)

// AdversarialConfig parameterizes the trim-threshold attack: the job
// population is marched back and forth across the trim layer's n*
// doubling/halving thresholds to force worst-case rebuild storms.
//
// trim doubles n* while n > n* and halves it while 4n < n*, paying a
// full O(n) rebuild per change. Each cycle grows the population to
// Peak (forcing at least one doubling on every machine's trim
// instance) and then drains it to Peak/TroughDivisor (forcing at least
// one halving, since the divisor is > 4). The sequence stays
// γ-underallocated throughout, so the storm is pure reallocation
// overhead — every request is feasible.
type AdversarialConfig struct {
	Seed     int64
	Machines int   // pool size (default 4)
	Gamma    int64 // slack enforced by construction (default 8)
	Horizon  int64 // schedule horizon, power of two (default 4096)
	MinSpan  int64 // narrowest window span generated, a power of two (default 1)
	// Cycles is the number of grow/drain wave pairs (default 6).
	Cycles int
	// Peak is the population ceiling of each wave (default half the
	// global underallocation budget, Horizon*Machines/(2*Gamma)).
	Peak int
	// TroughDivisor sets the drain floor Peak/TroughDivisor (default
	// 8; must be > 4 so every drain crosses the halving threshold).
	TroughDivisor int
}

func (c *AdversarialConfig) fill() error {
	if c.Machines == 0 {
		c.Machines = 4
	}
	if c.Gamma == 0 {
		c.Gamma = 8
	}
	if c.Horizon == 0 {
		c.Horizon = 4096
	}
	if c.Cycles == 0 {
		c.Cycles = 6
	}
	if c.Peak == 0 {
		c.Peak = int(c.Horizon * int64(c.Machines) / (2 * c.Gamma))
		if c.Peak < 2 {
			c.Peak = 2
		}
	}
	if c.TroughDivisor == 0 {
		c.TroughDivisor = 8
	}
	if !mathx.IsPow2(c.Horizon) {
		return fmt.Errorf("workload: adversarial horizon %d must be a power of two", c.Horizon)
	}
	if c.TroughDivisor <= 4 {
		return fmt.Errorf("workload: adversarial trough divisor %d must exceed 4 (trim halves n* only when 4n < n*)",
			c.TroughDivisor)
	}
	return nil
}

// Adversarial generates the threshold-walk sequence: Cycles rounds of
// growing the active population to Peak and draining it to
// Peak/TroughDivisor. Budget exhaustion merely caps a wave early; the
// following drain restores headroom.
func Adversarial(cfg AdversarialConfig) ([]jobs.Request, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	g, err := NewGenerator(Config{
		Seed: cfg.Seed, Machines: cfg.Machines, Gamma: cfg.Gamma,
		Horizon: cfg.Horizon, MinSpan: cfg.MinSpan,
	})
	if err != nil {
		return nil, err
	}
	trough := cfg.Peak / cfg.TroughDivisor
	if trough < 1 {
		trough = 1
	}
	var reqs []jobs.Request
	for c := 0; c < cfg.Cycles; c++ {
		grew := false
		for len(g.active) < cfg.Peak {
			r, ok := g.tryInsert()
			if !ok {
				break
			}
			grew = true
			reqs = append(reqs, r)
		}
		if !grew && c == 0 {
			return nil, fmt.Errorf("workload: adversarial budget admitted no jobs (gamma %d too large for horizon %d on %d machines)",
				cfg.Gamma, cfg.Horizon, cfg.Machines)
		}
		for len(g.active) > trough {
			reqs = append(reqs, g.emitDelete())
		}
	}
	return reqs, nil
}
