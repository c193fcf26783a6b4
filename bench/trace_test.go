package main

import (
	"testing"

	realloc "repro"
	"repro/internal/alignsched"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/multi"
	"repro/internal/sched"
	"repro/internal/trim"
)

// TestDecoratorShowsInnerInterfaces: the decorator forwards Poisoner,
// Recycler, Elastic, BatchScheduler and BatchEvictor exactly when the
// scheduler under it has them, for each of the four layers it wraps.
func TestDecoratorShowsInnerInterfaces(t *testing.T) {
	coreFactory := func() sched.Scheduler { return core.New() }
	single := func() sched.Scheduler { return trim.New(trimGamma, coreFactory) }
	layers := map[string]sched.Scheduler{
		"core":       core.New(),
		"trim":       single(),
		"multi":      multi.New(2, single),
		"alignsched": alignsched.New(multi.New(2, single)),
	}
	ts := newTraceSet()
	for name, inner := range layers {
		wrapped := ts.wrap(ts.tracer(), layerCore, inner)
		if got, want := optional(wrapped), optional(inner); got != want {
			t.Errorf("%s: decorator shows optional interfaces %v, inner has %v", name, got, want)
		}
	}
}

// TestTracedStackFidelity replays the stack workloads' streams through
// realloc.New and through the traced composition, and requires the same
// final assignment and the same cost totals: otherwise the traced pass
// measures a different program.
func TestTracedStackFidelity(t *testing.T) {
	const n = 50000
	churn, err := churnStream(1, stackMachines, churnTarget, n, "")
	if err != nil {
		t.Fatal(err)
	}
	storm, err := stormStream(1, stormCycles)
	if err != nil {
		t.Fatal(err)
	}
	for name, reqs := range map[string][]jobs.Request{
		"stack_churn": append(churn.preload, churn.reqs...),
		"stack_storm": storm.reqs[:n],
	} {
		plain := realloc.New(realloc.WithMachines(stackMachines))
		traced, _ := newStack(newTraceSet())
		var plainCost, tracedCost metrics.Cost
		for i, rq := range reqs {
			pc, perr := sched.Apply(plain, rq)
			tc, terr := sched.Apply(traced, rq)
			if perr != nil || terr != nil {
				t.Fatalf("%s request %d (%s): plain %v, traced %v", name, i, rq, perr, terr)
			}
			plainCost.Add(pc)
			tracedCost.Add(tc)
		}
		if plainCost != tracedCost {
			t.Errorf("%s: traced stack cost %+v, realloc.New cost %+v", name, tracedCost, plainCost)
		}
		if err := samePlacements(traced.Assignment(), plain.Assignment()); err != nil {
			t.Errorf("%s: traced stack diverged from realloc.New: %v", name, err)
		}
	}
}

// TestShardStackFidelity does the same for the stack each shard gets
// (multi always present, so that it is elastic), through the bulk path.
func TestShardStackFidelity(t *testing.T) {
	st, err := churnStream(2, poolMachines, 2000, 20000, "")
	if err != nil {
		t.Fatal(err)
	}
	reqs := append(st.preload, st.reqs...)
	plain := realloc.NewSharded(poolOptions()...)
	defer plain.Close()
	traced, err := openSharded(newTraceSet(), t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	for lo := 0; lo < len(reqs); lo += serveBatch {
		chunk := reqs[lo:min(lo+serveBatch, len(reqs))]
		if _, err := plain.ApplyBatch(chunk); err != nil {
			t.Fatal(err)
		}
		if _, err := traced.ApplyBatch(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if p, q := plain.Report().Total().Cost, traced.Report().Total().Cost; p != q {
		t.Errorf("traced shards cost %+v, realloc.NewSharded cost %+v", q, p)
	}
	if err := samePlacements(traced.Assignment(), plain.Assignment()); err != nil {
		t.Errorf("traced shards diverged from realloc.NewSharded: %v", err)
	}
}

// TestSpanSelfTime: a span's self time is its duration minus the time
// inside its direct children, and grandchildren count against the child.
func TestSpanSelfTime(t *testing.T) {
	var now int64
	tr := &tracer{id: 1, clock: func() int64 { return now }}
	at := func(ns int64) { now = ns }

	at(0)
	tr.begin(layerAlign, jobs.Insert, "job", 1)
	at(10)
	tr.begin(layerMulti, jobs.Insert, "job", 1)
	at(15)
	tr.begin(layerTrim, jobs.Insert, "job", 1)
	at(25)
	tr.end(metrics.Cost{Reallocations: 2}, nil) // trim: 10 long
	at(30)
	tr.end(metrics.Cost{}, nil) // multi: 20 long, 10 of them in trim
	at(40)
	tr.begin(layerMulti, jobs.Insert, "job", 1)
	at(45)
	tr.end(metrics.Cost{}, nil) // multi again: 5 long
	at(100)
	tr.end(metrics.Cost{}, nil) // alignsched: 100 long, 25 in its two children

	want := map[int]layerAgg{
		layerAlign: {calls: 1, reqs: 1, total: 100, self: 75},
		layerMulti: {calls: 2, reqs: 2, total: 25, self: 15},
		layerTrim:  {calls: 1, reqs: 1, total: 10, self: 10, reallocs: 2},
	}
	for layer, w := range want {
		if got := tr.agg[layer]; got != w {
			t.Errorf("%s: got %+v, want %+v", layerNames[layer], got, w)
		}
	}
	if len(tr.open) != 0 {
		t.Errorf("%d spans left open", len(tr.open))
	}
}

// TestSpansShareRequestAndParent: the spans of a sampled request carry its
// identifier and point at the span that caused them; an unsampled request
// leaves counters but no spans.
func TestSpansShareRequestAndParent(t *testing.T) {
	var name string
	for i := 0; !sampled(name); i++ {
		name = "j" + string(rune('a'+i%26)) + name
	}
	var now int64
	tr := &tracer{id: 7, clock: func() int64 { now++; return now }}
	tr.begin(layerAlign, jobs.Delete, name, 1)
	tr.begin(layerCore, jobs.Delete, name, 1)
	tr.end(metrics.Cost{}, nil)
	tr.end(metrics.Cost{}, nil)
	if len(tr.spans) != 2 {
		t.Fatalf("sampled request left %d spans, want 2", len(tr.spans))
	}
	child, root := tr.spans[0], tr.spans[1]
	if child.Req != "d:"+name || root.Req != child.Req {
		t.Errorf("request identifiers %q and %q, want d:%s on both", root.Req, child.Req, name)
	}
	if child.Parent != root.ID || root.Parent != 0 {
		t.Errorf("child's parent is %d and root's is %d, want %d and 0", child.Parent, root.Parent, root.ID)
	}

	var other string
	for i := 0; other == "" || sampled(other); i++ {
		other = "k" + string(rune('a'+i%26)) + other
	}
	tr.begin(layerAlign, jobs.Insert, other, 1)
	tr.end(metrics.Cost{}, nil)
	if len(tr.spans) != 2 || tr.agg[layerAlign].calls != 2 {
		t.Errorf("unsampled request: %d spans and %d counted calls, want 2 and 2", len(tr.spans), tr.agg[layerAlign].calls)
	}
}
