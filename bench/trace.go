package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/hdr"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trim"
)

// Span names. The first five are the seams of the Theorem 1 stack; the
// rest are recorded around the benchmark's own calls into the layers
// above it.
const (
	layerApply   = iota // the benchmark's call into the top of an embedded stack
	layerAlign          // alignsched
	layerMulti          // multi
	layerTrim           // trim
	layerCore           // core
	layerShard          // call→return of shard.Scheduler.Apply
	layerSubmit         // call→return of client.SubmitAsync
	layerRequest        // served request, due time → ack
	numLayers
)

var layerNames = [numLayers]string{
	"apply", "alignsched", "multi", "trim", "core", "shard", "client.submit", "request",
}

// sampleEvery: full span trees are kept for one request in this many;
// the aggregate counters cover every request.
const sampleEvery = 64

// sampled decides from the job name alone, so the goroutines a request
// crosses (pacer, shard worker, ack waiter) agree without talking.
func sampled(name string) bool {
	if name == "" {
		return false // a batch with no sampled member
	}
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h%sampleEvery == 0
}

func reqID(kind jobs.RequestKind, name string) string {
	if kind == jobs.Delete {
		return "d:" + name
	}
	return "i:" + name
}

// span is one line of the dump. Spans of one request share Req; Parent
// is the enclosing span on the same goroutine, 0 at the top of one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req"`
	N      int    `json:"n"` // requests covered (a batch span covers many)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layerAgg sums every span of one layer, sampled or not.
type layerAgg struct {
	calls    int64 // spans closed
	reqs     int64 // requests those spans covered
	total    int64 // ns inside the spans
	self     int64 // total minus the time inside direct child spans
	reallocs int64 // Cost.Reallocations the spans returned
}

func (a *layerAgg) add(o layerAgg) {
	a.calls += o.calls
	a.reqs += o.reqs
	a.total += o.total
	a.self += o.self
	a.reallocs += o.reallocs
}

type openSpan struct {
	layer        int
	id           uint64
	n            int
	start, child int64
	req          string // "" when the request is not sampled
}

// tracer records the spans of one goroutine at a time: a shard's stack
// (entered only by its worker), an embedded stack, a driver, the pacer.
// It needs no lock; traceSet reads it after the goroutine is done.
type tracer struct {
	id    uint64
	seq   uint64
	clock func() int64
	open  []openSpan
	agg   [numLayers]layerAgg
	spans []span
	trims []*trim.Scheduler // every trim instance the stack built

	rebuildBase int // the trims' rebuilds before the clock started
}

func (t *tracer) rebuilds() (n int) {
	for _, tr := range t.trims {
		n += tr.Rebuilds()
	}
	return n
}

func (t *tracer) begin(layer int, kind jobs.RequestKind, name string, n int) {
	o := openSpan{layer: layer, n: n, start: t.clock()}
	if d := len(t.open); d > 0 {
		o.req = t.open[d-1].req
	} else if sampled(name) {
		o.req = reqID(kind, name)
	}
	if o.req != "" {
		t.seq++
		o.id = t.id<<40 | t.seq
	}
	t.open = append(t.open, o)
}

// beginBatch opens a span covering reqs; it is sampled when any member is.
func (t *tracer) beginBatch(layer int, reqs []jobs.Request) {
	if len(t.open) == 0 {
		for _, r := range reqs {
			if sampled(r.Name) {
				t.begin(layer, r.Kind, r.Name, len(reqs))
				return
			}
		}
	}
	t.begin(layer, jobs.Insert, "", len(reqs))
}

func (t *tracer) end(cost metrics.Cost, dur *hdr.Histogram) {
	now := t.clock()
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := now - o.start
	a := &t.agg[o.layer]
	a.calls++
	a.reqs += int64(o.n)
	a.total += d
	a.self += d - o.child
	a.reallocs += int64(cost.Reallocations)
	if dur != nil {
		dur.Record(d)
	}
	var parent uint64
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
		parent = t.open[n-1].id
	}
	if o.req != "" {
		t.spans = append(t.spans, span{ID: o.id, Parent: parent, Name: layerNames[o.layer], Req: o.req, N: o.n, Start: o.start, End: now})
	}
}

// record adds a span whose two ends were seen on different goroutines
// (a request's due time and its ack), so it cannot nest.
func (t *tracer) record(layer int, kind jobs.RequestKind, name string, start, end int64) {
	a := &t.agg[layer]
	a.calls++
	a.reqs++
	a.total += end - start
	a.self += end - start
	if sampled(name) {
		t.seq++
		t.spans = append(t.spans, span{ID: t.id<<40 | t.seq, Name: layerNames[layer], Req: reqID(kind, name), N: 1, Start: start, End: end})
	}
}

// traceSet owns the tracers of one traced pass.
type traceSet struct {
	base    time.Time
	trimDur *hdr.Histogram // duration of every trim span

	mu      sync.Mutex
	tracers []*tracer
}

func newTraceSet() *traceSet {
	return &traceSet{base: time.Now(), trimDur: hdr.New()}
}

func (s *traceSet) now() int64 { return int64(time.Since(s.base)) }

func (s *traceSet) tracer() *tracer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &tracer{id: uint64(len(s.tracers) + 1), clock: s.now}
	s.tracers = append(s.tracers, t)
	return t
}

// startClock forgets what set-up recorded (the preload's ramp is rebuild
// after rebuild), so that the counters cover the measured requests only.
// Like totals, call it only while the tracers' goroutines are idle.
func (s *traceSet) startClock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.trimDur.Reset()
	for _, t := range s.tracers {
		t.agg = [numLayers]layerAgg{}
		t.spans = t.spans[:0]
		t.rebuildBase = t.rebuilds()
	}
}

// totals sums the layer counters and trim rebuilds of every tracer. Call
// it only after the goroutines that own the tracers have stopped.
func (s *traceSet) totals() (agg [numLayers]layerAgg, rebuilds int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, t := range s.tracers {
		for l := range agg {
			agg[l].add(t.agg[l])
		}
		rebuilds += t.rebuilds() - t.rebuildBase
	}
	return agg, rebuilds
}

// appendSpans writes every sampled span to path, one JSON object a line.
func (s *traceSet) appendSpans(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range s.tracers {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traced is the sched.Scheduler decorator: a span around every request
// entering inner. wrap adds the optional interfaces inner has.
type traced struct {
	t     *tracer
	set   *traceSet
	layer int
	inner sched.Scheduler
}

func (d *traced) dur() *hdr.Histogram {
	if d.layer == layerTrim {
		return d.set.trimDur
	}
	return nil
}

func (d *traced) Insert(j jobs.Job) (metrics.Cost, error) {
	d.t.begin(d.layer, jobs.Insert, j.Name, 1)
	c, err := d.inner.Insert(j)
	d.t.end(c, d.dur())
	return c, err
}

func (d *traced) Delete(name string) (metrics.Cost, error) {
	d.t.begin(d.layer, jobs.Delete, name, 1)
	c, err := d.inner.Delete(name)
	d.t.end(c, d.dur())
	return c, err
}

func (d *traced) Assignment() jobs.Assignment { return d.inner.Assignment() }
func (d *traced) Active() int                 { return d.inner.Active() }
func (d *traced) Jobs() []jobs.Job            { return d.inner.Jobs() }
func (d *traced) Machines() int               { return d.inner.Machines() }
func (d *traced) SelfCheck() error            { return d.inner.SelfCheck() }

// The optional interfaces, one forwarder each. A layer probes the one
// below with type assertions (alignsched for Elastic, the sched helpers
// for the rest), so the decorator must show exactly the set its inner
// scheduler shows or the traced pass measures a different program.
type (
	poisonFwd  struct{ d *traced }
	recycleFwd struct{ d *traced }
	elasticFwd struct{ d *traced }
	batchFwd   struct{ d *traced }
	evictFwd   struct{ d *traced }
)

func (f poisonFwd) Poisoned() error { return f.d.inner.(sched.Poisoner).Poisoned() }
func (f recycleFwd) Recycle()       { f.d.inner.(sched.Recycler).Recycle() }
func (f elasticFwd) AddMachines(n int) error {
	return f.d.inner.(sched.Elastic).AddMachines(n)
}
func (f elasticFwd) RemoveMachines(n int) (metrics.Cost, []jobs.Job, error) {
	return f.d.inner.(sched.Elastic).RemoveMachines(n)
}
func (f batchFwd) ApplyBatch(reqs []jobs.Request) ([]metrics.Cost, error) {
	f.d.t.beginBatch(f.d.layer, reqs)
	costs, err := f.d.inner.(sched.BatchScheduler).ApplyBatch(reqs)
	var sum metrics.Cost
	for _, c := range costs {
		sum.Add(c)
	}
	f.d.t.end(sum, f.d.dur())
	return costs, err
}
func (f evictFwd) TakeBatchEvictions() []string {
	return f.d.inner.(sched.BatchEvictor).TakeBatchEvictions()
}

// One decorator type per set of optional interfaces the four layers show.
type (
	tracedCore struct {
		*traced
		poisonFwd
		recycleFwd
		batchFwd
	}
	tracedTrim struct {
		*traced
		recycleFwd
		batchFwd
		evictFwd
	}
	tracedMulti struct {
		*traced
		elasticFwd
		recycleFwd
		batchFwd
		evictFwd
	}
	tracedAlign struct {
		*traced
		elasticFwd
		batchFwd
		evictFwd
	}
)

// optional lists which optional interfaces s has, in a fixed order.
func optional(s sched.Scheduler) (has [5]bool) {
	_, has[0] = s.(sched.Poisoner)
	_, has[1] = s.(sched.Recycler)
	_, has[2] = s.(sched.Elastic)
	_, has[3] = s.(sched.BatchScheduler)
	_, has[4] = s.(sched.BatchEvictor)
	return has
}

// wrap decorates inner with spans named after layer. It panics on a set
// of optional interfaces none of the four layers has today: a new one
// needs its own decorator type, and guessing would break fidelity.
func (s *traceSet) wrap(t *tracer, layer int, inner sched.Scheduler) sched.Scheduler {
	d := &traced{t: t, set: s, layer: layer, inner: inner}
	p, r, e, b, v := poisonFwd{d}, recycleFwd{d}, elasticFwd{d}, batchFwd{d}, evictFwd{d}
	switch optional(inner) {
	case [5]bool{true, true, false, true, false}:
		return tracedCore{d, p, r, b}
	case [5]bool{false, true, false, true, true}:
		return tracedTrim{d, r, b, v}
	case [5]bool{false, true, true, true, true}:
		return tracedMulti{d, e, r, b, v}
	case [5]bool{false, false, true, true, true}:
		return tracedAlign{d, e, b, v}
	}
	panic(fmt.Sprintf("bench: no decorator for %T with optional interfaces %v", inner, optional(inner)))
}
