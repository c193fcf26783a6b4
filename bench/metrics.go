package main

import (
	"encoding/json"
	"fmt"
)

// metricDef is one row of BENCHMARK.json; TestBenchmarkJSON keeps the
// file and these tables the same.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd: what a user of the system sees, with the share of the
// parent's median each may worsen by. README.md has the definitions and
// the runs the bounds were calibrated on. The latency tail is not here:
// on the served workloads a few dozen pauses a run set every quantile
// above the 90th, no statistic of them repeats within the largest bound
// the contract allows (README.md, "Why the latency tail has no bound"),
// and every workload prints every metric of this table. It is per-layer.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"req_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"realloc_per_req", "count", "lower", 0.04},
	{"migr_per_req", "count", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
}

// perLayer: counters and self times of single layers, from the traced
// rounds. A layer a workload leaves idle reports 0.
var perLayer = []metricDef{
	{"alignsched.self_ns_per_req", "ns", "lower", 0},
	{"multi.self_ns_per_req", "ns", "lower", 0},
	{"trim.self_ns_per_req", "ns", "lower", 0},
	{"trim.rebuilds", "count", "lower", 0},
	{"trim.span_p99_us", "us", "lower", 0},
	{"trim.span_max_us", "us", "lower", 0},
	{"core.self_ns_per_call", "ns", "lower", 0},
	{"core.realloc_per_call", "count", "lower", 0},
	{"core.calls_per_req", "count", "lower", 0},
	{"shard.apply_ns_per_req", "ns", "lower", 0},
	{"shard.stack_ns_per_req", "ns", "lower", 0},
	{"shard.dispatch_wait_p50_us", "us", "lower", 0},
	{"shard.dispatch_wait_p99_us", "us", "lower", 0},
	{"shard.reqs_per_wakeup", "count", "higher", 0},
	{"shard.overflow", "count", "lower", 0},
	{"shard.rerouted", "count", "lower", 0},
	{"shard.imbalance", "ratio", "lower", 0},
	{"wal.groups", "count", "lower", 0},
	{"wal.reqs_per_group", "count", "higher", 0},
	{"wal.bytes_per_req", "bytes", "lower", 0},
	{"wal.reqs_per_record", "count", "higher", 0},
	{"wal.checkpoint_ms", "ms", "lower", 0},
	{"wal.sync_append_ns", "ns", "lower", 0},
	{"wire.bytes_in_per_req", "bytes", "lower", 0},
	{"wire.bytes_out_per_req", "bytes", "lower", 0},
	{"wire.encode_ns_per_frame", "ns", "lower", 0},
	{"wire.decode_ns_per_frame", "ns", "lower", 0},
	{"wire.decode_allocs_per_frame", "count", "lower", 0},
	{"server.reads_per_req", "count", "lower", 0},
	{"server.acks_per_write", "count", "higher", 0},
	{"server.reqs_per_tick", "count", "higher", 0},
	{"server.overload", "count", "lower", 0},
	{"server.deadline", "count", "lower", 0},
	{"server.ping_rtt_us", "us", "lower", 0},
	{"client.submit_ns", "ns", "lower", 0},
	{"repl.bytes_per_req", "bytes", "lower", 0},
	{"repl.writes_per_group", "count", "lower", 0},
	{"repl.lag_reqs_p50", "count", "lower", 0},
	{"repl.lag_reqs_p99", "count", "lower", 0},
	{"repl.lag_reqs_max", "count", "lower", 0},
	{"repl.promote_ms", "ms", "lower", 0},
	{"repl.handoff_ms", "ms", "lower", 0},
	{"repl.requests_replayed", "count", "higher", 0},
	{"gen.late_p50_us", "us", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.achieved_rps", "1/s", "higher", 0},
	{"proc.allocs_per_req", "count", "lower", 0},
	{"proc.bytes_per_req", "bytes", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"lat_p99_us", "us", "lower", 0},
	{"lat_p999_us", "us", "lower", 0},
	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"ladder.stack_ns", "ns", "lower", 0},
	{"ladder.shard_ns", "ns", "lower", 0},
	{"ladder.shard_wal_ns", "ns", "lower", 0},
	{"ladder.serve_ns", "ns", "lower", 0},
	{"ladder.serve_repl_ns", "ns", "lower", 0},
	{"tax.shard_ratio", "ratio", "lower", 0},
	{"tax.wal_ratio", "ratio", "lower", 0},
	{"tax.serve_ratio", "ratio", "lower", 0},
	{"tax.repl_ratio", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs values with the units of defs, and fails on a value the
// table does not name or a name without a value: the output contract is
// every metric, every time.
func report(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the table", name)
			}
		}
	}
	return out, nil
}

func div(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEndValues are the end-to-end metrics of the untraced rounds.
func (r *run) endToEndValues() (map[string]float64, error) {
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup_s":         median(r.setup),
		"req_per_s":       median(r.rate),
		"lat_p50_us":      float64(quantile(sortedCopy(r.lat), 0.50)) / 1e3,
		"realloc_per_req": div(float64(r.cost.Reallocations), float64(r.served)),
		"migr_per_req":    div(float64(r.cost.Migrations), float64(r.served)),
		"peak_rss_mb":     rss,
		"recover_s":       median(r.recover),
	}, nil
}

// perLayerValues are the per-layer metrics of the traced rounds plus the
// ladder. Every name of perLayer gets a value; an idle layer's is 0.
func (r *run) perLayerValues(ladder map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	stackReqs := float64(r.agg[layerAlign].reqs)
	v["alignsched.self_ns_per_req"] = div(float64(r.agg[layerAlign].self), stackReqs)
	v["multi.self_ns_per_req"] = div(float64(r.agg[layerMulti].self), stackReqs)
	v["trim.self_ns_per_req"] = div(float64(r.agg[layerTrim].self), stackReqs)
	v["trim.rebuilds"] = float64(r.rebuilds)
	v["trim.span_p99_us"] = float64(r.trimDur.Quantile(0.99)) / 1e3
	v["trim.span_max_us"] = float64(r.trimDur.Max()) / 1e3
	coreCalls := float64(r.agg[layerCore].reqs)
	v["core.self_ns_per_call"] = div(float64(r.agg[layerCore].self), coreCalls)
	v["core.realloc_per_call"] = div(float64(r.agg[layerCore].reallocs), coreCalls)
	v["core.calls_per_req"] = div(coreCalls, stackReqs)

	c := &r.c
	v["shard.apply_ns_per_req"] = div(float64(r.agg[layerShard].total), float64(r.agg[layerShard].reqs))
	if c.sum["shard.requests"] > 0 {
		v["shard.stack_ns_per_req"] = div(float64(r.agg[layerAlign].total), stackReqs)
	}
	v["shard.reqs_per_wakeup"] = c.ratio("shard.requests", "shard.batches")
	v["shard.overflow"] = c.sum["shard.overflow"]
	v["shard.rerouted"] = c.sum["shard.rerouted"]
	v["wal.groups"] = c.sum["wal.groups"]
	v["wal.reqs_per_group"] = c.ratio("wal.requests", "wal.groups")
	v["wal.bytes_per_req"] = c.ratio("wal.bytes", "wal.requests")
	v["wal.reqs_per_record"] = c.ratio("wal.record_requests", "wal.records")
	v["wire.bytes_in_per_req"] = c.ratio("wire.bytes_in", "server.requests")
	v["wire.bytes_out_per_req"] = c.ratio("wire.bytes_out", "server.requests")
	v["server.reads_per_req"] = c.ratio("server.reads", "server.requests")
	v["server.acks_per_write"] = c.ratio("server.requests", "server.writes")
	if c.sum["server.requests"] > 0 {
		v["server.reqs_per_tick"] = v["wal.reqs_per_record"]
	}
	v["server.overload"] = c.sum["server.overload"]
	v["server.deadline"] = c.sum["server.deadline"]
	v["repl.bytes_per_req"] = c.ratio("repl.bytes", "wal.requests")
	v["repl.writes_per_group"] = c.ratio("repl.writes", "wal.groups")
	v["repl.requests_replayed"] = c.sum["repl.requests_replayed"]
	v["proc.allocs_per_req"] = c.ratio("proc.allocs", "proc.requests")
	v["proc.bytes_per_req"] = c.ratio("proc.bytes", "proc.requests")
	v["proc.gc_cycles"] = c.sum["proc.gc_cycles"]
	v["proc.gc_pause_ms"] = c.sum["proc.gc_pause_ms"]
	// Sampled once a traced round; the run reports the median round.
	for name, xs := range c.samples {
		v[name] = median(xs)
	}
	v["lat_p99_us"] = windowedQuantile(r.lat, latencyWindows, 0.99) / 1e3
	v["lat_p999_us"] = float64(quantile(sortedCopy(r.lat), 0.999)) / 1e3
	v["trace.overhead_ratio"] = div(median(r.tracedRate), median(r.rate))
	for name, x := range ladder {
		v[name] = x
	}
	return v
}

// contract is the content of ../BENCHMARK.json, built from the tables
// above and the workload list so that the file cannot drift from the
// code; `go test -run TestBenchmarkJSON -update` rewrites the file.
func contract() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	c := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{benchDir},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, workloadDef{w.name, w.why})
	}
	for _, d := range perLayer {
		c.PerLayer = append(c.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	data, err := json.MarshalIndent(c, "", "  ")
	return append(data, '\n'), err
}

// runSeconds is BENCHMARK.json's run_seconds: the on-clock budget the
// driver passes as --seconds, and the default of a full run.
const runSeconds = 10
