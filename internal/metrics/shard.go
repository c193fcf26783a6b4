package metrics

import (
	"fmt"
	"strings"

	"repro/internal/hdr"
)

// ShardCost aggregates the requests served by one shard of a sharded
// scheduler front-end.
type ShardCost struct {
	// Shard is the shard index.
	Shard int
	// Machines is the number of machines the shard owns.
	Machines int
	// Requests is the number of requests the shard executed, including
	// overflow requests routed to it as a fallback. A request that
	// overflows is executed twice — once on the primary shard, once on
	// the fallback — so the number of distinct requests across a report
	// is sum(Requests) - sum(Rerouted).
	Requests int
	// Failures is the number of requests that terminally failed on this
	// shard (duplicate, unknown, or infeasible with no fallback left).
	// Rejections that were retried on another shard count under
	// Rerouted instead.
	Failures int
	// Rerouted is the number of inserts this shard rejected as locally
	// infeasible that the front-end then retried on a fallback shard.
	Rerouted int
	// Overflow is the number of requests this shard served after
	// another shard rejected them as infeasible.
	Overflow int
	// Batches is the number of times a request path took the shard's
	// lock: once per request attempt, whether from Apply or a member of
	// an ApplyBatch.
	// Requests/Batches is the mean number of requests per acquisition.
	Batches int
	// ResizeEvicted is the number of jobs pool resizes drained off this
	// shard that its surviving machines could not absorb.
	ResizeEvicted int
	// ResizeAbsorbed is the number of resize-evicted jobs from other
	// shards this shard took in.
	ResizeAbsorbed int
	// Active is the shard's active job count at report time.
	Active int
	// Cost is the shard's total reallocation/migration cost.
	Cost Cost
	// Latency is the shard's request-latency histogram (nanoseconds,
	// lock wait plus execution): every client request the shard
	// executed, per-request and batched alike. Empty when the shard
	// served nothing.
	Latency hdr.Snapshot
}

// ResizeCost is the price of one elastic machine-pool resize of a
// sharded scheduler. It is the resize analogue of Cost: growing is
// free (no job moves), shrinking pays at most one migration per job
// that lived on a drained machine.
type ResizeCost struct {
	// Shard is the resized shard, or -1 for a pool-wide Resize.
	Shard int
	// Delta is the machine-count change (positive = grow).
	Delta int
	// Evicted is how many jobs the shrunken shard could not keep.
	Evicted int
	// Reinserted is how many evicted jobs another shard absorbed.
	Reinserted int
	// Dropped is how many evicted jobs no shard could absorb; they left
	// the scheduler entirely.
	Dropped int
	// Cost is the total reallocation/migration price of the resize:
	// intra-shard re-placements plus one migration per cross-shard move.
	Cost Cost
}

// Add folds o into r (for aggregating per-shard resizes into a
// pool-wide total).
func (r *ResizeCost) Add(o ResizeCost) {
	r.Delta += o.Delta
	r.Evicted += o.Evicted
	r.Reinserted += o.Reinserted
	r.Dropped += o.Dropped
	r.Cost.Add(o.Cost)
}

// ShardReport is the shard-aware cost report of a sharded scheduler:
// per-shard aggregates, the resize history, plus module-wide totals.
type ShardReport struct {
	Shards []ShardCost
	// Resizes is the history of elastic pool resizes, oldest first.
	Resizes []ResizeCost
}

// ResizeTotal aggregates the resize history (Shard is -1 in the
// result).
func (r ShardReport) ResizeTotal() ResizeCost {
	t := ResizeCost{Shard: -1}
	for _, rc := range r.Resizes {
		t.Add(rc)
	}
	return t
}

// Total sums the per-shard aggregates.
func (r ShardReport) Total() ShardCost {
	var t ShardCost
	t.Shard = -1
	for _, s := range r.Shards {
		t.Machines += s.Machines
		t.Requests += s.Requests
		t.Failures += s.Failures
		t.Rerouted += s.Rerouted
		t.Overflow += s.Overflow
		t.Batches += s.Batches
		t.ResizeEvicted += s.ResizeEvicted
		t.ResizeAbsorbed += s.ResizeAbsorbed
		t.Active += s.Active
		t.Cost.Add(s.Cost)
		t.Latency.Merge(s.Latency)
	}
	return t
}

// Served returns the number of distinct requests that succeeded across
// the report: executions minus fallback re-executions minus terminal
// failures.
func (r ShardReport) Served() int {
	t := r.Total()
	return t.Requests - t.Rerouted - t.Failures
}

// Imbalance returns max/mean executed requests across shards — 1.0 is a
// perfectly even spread; 0 when nothing has been served.
func (r ShardReport) Imbalance() float64 {
	if len(r.Shards) == 0 {
		return 0
	}
	total, maxR := 0, 0
	for _, s := range r.Shards {
		total += s.Requests
		if s.Requests > maxR {
			maxR = s.Requests
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.Shards))
	return float64(maxR) / mean
}

// latencySummary renders a histogram as "p50/p99/p99.9/max" in
// microseconds, or "" when empty.
func latencySummary(l hdr.Snapshot) string {
	if l.Count() == 0 {
		return ""
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return fmt.Sprintf(" lat(us) p50=%.1f p99=%.1f p99.9=%.1f max=%.1f",
		us(l.Quantile(0.50)), us(l.Quantile(0.99)), us(l.Quantile(0.999)), us(l.Max()))
}

// String renders one line per shard plus a totals line.
func (r ShardReport) String() string {
	var b strings.Builder
	for _, s := range r.Shards {
		fmt.Fprintf(&b, "shard %d: machines=%d active=%d reqs=%d fail=%d rerouted=%d overflow=%d batches=%d realloc=%d migr=%d%s\n",
			s.Shard, s.Machines, s.Active, s.Requests, s.Failures, s.Rerouted, s.Overflow, s.Batches,
			s.Cost.Reallocations, s.Cost.Migrations, latencySummary(s.Latency))
	}
	t := r.Total()
	fmt.Fprintf(&b, "total:   machines=%d active=%d served=%d fail=%d rerouted=%d overflow=%d realloc=%d migr=%d imbalance=%.2f%s",
		t.Machines, t.Active, r.Served(), t.Failures, t.Rerouted, t.Overflow,
		t.Cost.Reallocations, t.Cost.Migrations, r.Imbalance(), latencySummary(t.Latency))
	if len(r.Resizes) > 0 {
		rt := r.ResizeTotal()
		fmt.Fprintf(&b, "\nresizes: %d (net delta %+d) evicted=%d reinserted=%d dropped=%d realloc=%d migr=%d",
			len(r.Resizes), rt.Delta, rt.Evicted, rt.Reinserted, rt.Dropped,
			rt.Cost.Reallocations, rt.Cost.Migrations)
	}
	return b.String()
}
