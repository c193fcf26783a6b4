package main

import (
	"repro/internal/jobs"
	gen "repro/internal/workload"
)

// subSeed derives the seed of one generator (a driver, a tenant, the
// ladder) from the run's -seed, by a splitmix64 round so that nearby
// seeds and nearby streams share nothing.
func subSeed(seed int64, stream uint64) int64 {
	x := uint64(seed) ^ (0x9e3779b97f4a7c15 * (stream + 1))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// churnHorizon is the timeline of every churn stream. With gamma 8 it
// leaves the dyadic budget far above the target populations, so the
// generator never runs out of windows and trim sits between thresholds.
const churnHorizon = 1 << 16

// stream is the input of one driver: requests that take an empty
// scheduler to the target population, the measured requests that follow
// them, and the job set that must be active after both.
type stream struct {
	preload []jobs.Request
	reqs    []jobs.Request
	active  []jobs.Job
}

// churnStream draws a γ-underallocated insert/delete mix that hovers at
// target jobs on `machines` machines. Names get prefix, so that several
// streams can share one scheduler.
func churnStream(seed int64, machines, target, n int, prefix string) (stream, error) {
	g, err := gen.NewGenerator(gen.Config{
		Seed: seed, Machines: machines, Gamma: trimGamma, Horizon: churnHorizon, Target: target,
	})
	if err != nil {
		return stream{}, err
	}
	var st stream
	next := func() jobs.Request {
		r := g.Next()
		r.Name = prefix + r.Name
		return r
	}
	for pop := 0; pop < target; {
		r := next()
		if r.Kind == jobs.Insert {
			pop++
		} else {
			pop--
		}
		st.preload = append(st.preload, r)
	}
	st.reqs = make([]jobs.Request, n)
	for i := range st.reqs {
		st.reqs[i] = next()
	}
	st.active = g.Active()
	for i := range st.active {
		st.active[i].Name = prefix + st.active[i].Name
	}
	return st, nil
}

// Storm parameters: the population walks 8192↔1024 on 8 machines, across
// trim's n* doubling and halving thresholds, so rebuilds dominate.
const (
	stormHorizon = 1 << 14
	stormMinSpan = 2
)

// stormStream is workload.Adversarial; everything is measured, there is
// no preload.
func stormStream(seed int64, cycles int) (stream, error) {
	reqs, err := gen.Adversarial(gen.AdversarialConfig{
		Seed: seed, Machines: stackMachines, Horizon: stormHorizon, MinSpan: stormMinSpan, Cycles: cycles,
	})
	if err != nil {
		return stream{}, err
	}
	return stream{reqs: reqs, active: impliedActive(reqs)}, nil
}

// impliedActive is the job set a request sequence leaves behind when
// every request succeeds: inserts minus deletes.
func impliedActive(reqs []jobs.Request) []jobs.Job {
	live := make(map[string]jobs.Window)
	for _, r := range reqs {
		if r.Kind == jobs.Insert {
			live[r.Name] = r.Window
		} else {
			delete(live, r.Name)
		}
	}
	out := make([]jobs.Job, 0, len(live))
	for name, w := range live {
		out = append(out, jobs.Job{Name: name, Window: w})
	}
	return out
}
