package main

import (
	realloc "repro"
	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/trim"
	"repro/internal/wal"
)

// The compositions under test. The untraced ones are the public
// constructors; the traced ones compose the same layers the way
// realloc.go's buildStack and buildElasticStack do, with a decorator
// above each. TestTracedStackFidelity holds the two together.
const (
	stackMachines = 8  // stack_* workloads: realloc.New(WithMachines(8))
	poolShards    = 4  // reallocd's -shards default
	poolMachines  = 16 // reallocd's -machines default
	trimGamma     = 8  // realloc's default gamma
)

func poolOptions() []realloc.Option {
	return []realloc.Option{realloc.WithShards(poolShards), realloc.WithMachines(poolMachines)}
}

// stack is realloc.New(WithMachines(machines)), or with elastic set the
// stack NewSharded gives each shard, decorated for t.
func (s *traceSet) stack(t *tracer, machines int, elastic bool) sched.Scheduler {
	coreFactory := func() sched.Scheduler {
		return s.wrap(t, layerCore, core.New(core.WithMaxIntervals(1<<20)))
	}
	single := func() sched.Scheduler {
		tr := trim.New(trimGamma, coreFactory)
		t.trims = append(t.trims, tr)
		return s.wrap(t, layerTrim, tr)
	}
	var inner sched.Scheduler
	if machines == 1 && !elastic {
		inner = single()
	} else {
		inner = s.wrap(t, layerMulti, multi.New(machines, single))
	}
	return s.wrap(t, layerAlign, alignsched.New(inner))
}

// newStack builds the embedded stack of the stack_* workloads. With a
// trace set the returned tracer also takes the benchmark's own span
// around each call.
func newStack(ts *traceSet) (sched.Scheduler, *tracer) {
	if ts == nil {
		return realloc.New(realloc.WithMachines(stackMachines)), nil
	}
	t := ts.tracer()
	return ts.stack(t, stackMachines, false), t
}

// openSharded is realloc.OpenRecovered(dir, poolOptions()...) on a fresh
// directory, which is what reallocd -wal composes per tenant; observe,
// when set, is the WAL observer (replication's shipping hook, a counter,
// or both). Traced, it is the same composition from the layers' own
// constructors, each shard's stack decorated.
func openSharded(ts *traceSet, dir string, observe func(seg uint64, off int64, p []byte)) (*shard.Scheduler, error) {
	if ts == nil {
		opts := poolOptions()
		if observe != nil {
			opts = append(opts, realloc.WithWALObserver(observe))
		}
		s, _, err := realloc.OpenRecovered(dir, opts...)
		return s, err
	}
	log, _, err := wal.Open(dir, wal.Options{Observer: observe})
	if err != nil {
		return nil, err
	}
	return shard.New(shard.Config{
		Shards:   poolShards,
		Machines: poolMachines,
		WAL:      log,
		Factory: func(machines int) sched.Scheduler {
			return ts.stack(ts.tracer(), machines, true)
		},
	}), nil
}
