package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/jobs"
)

// mkStream builds a request stream of `n` inserts round-robining over
// `names` distinct job names, so lane affinity and balance are easy to
// assert against.
func mkStream(n, names int) []jobs.Request {
	reqs := make([]jobs.Request, n)
	for i := range reqs {
		reqs[i] = jobs.InsertReq(fmt.Sprintf("job-%03d", i%names), jobs.Time(i), jobs.Time(i+1))
	}
	return reqs
}

// partitionLanes must keep every request of a job name in one lane (the
// whole point of lane partitioning: per-job insert/delete order), in
// stream order, and must balance names across lanes by construction —
// NOT by hashing the name, which correlated lane load with the
// scheduler's consistent-hash routing and let a routing-skewed workload
// skew the drivers too.
func TestPartitionLanesNameAffinityAndBalance(t *testing.T) {
	const drivers = 4
	reqs := mkStream(400, 40)
	lanes := partitionLanes(reqs, drivers)

	laneOf := make(map[string]int)
	for li, rs := range lanes {
		for _, r := range rs {
			if prev, ok := laneOf[r.Name]; ok && prev != li {
				t.Fatalf("job %s split across lanes %d and %d", r.Name, prev, li)
			}
			laneOf[r.Name] = li
		}
	}
	// Each lane is exactly the stream restricted to its names, in
	// stream order.
	for li, rs := range lanes {
		var want []jobs.Request
		for _, r := range reqs {
			if laneOf[r.Name] == li {
				want = append(want, r)
			}
		}
		if len(rs) != len(want) {
			t.Fatalf("lane %d holds %d requests, want %d", li, len(rs), len(want))
		}
		for k := range rs {
			if rs[k] != want[k] {
				t.Fatalf("lane %d slot %d: %v, want %v (stream order)", li, k, rs[k], want[k])
			}
		}
	}
	// Round-robin assignment: 40 names over 4 lanes is exactly 10 each.
	names := make(map[int]int)
	for _, li := range laneOf {
		names[li]++
	}
	for li := 0; li < drivers; li++ {
		if names[li] != 10 {
			t.Fatalf("lane %d got %d names, want 10 (round-robin)", li, names[li])
		}
	}
}

// A tiny study must write every closed- and open-loop point of its
// ladders, each serving the whole workload without a failed request.
func TestScalingStudySmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scaling.json")
	cfg := config{
		seed: 1, machines: 4, requests: 300, drivers: 2,
		shards: []int{1, 2}, procs: []int{1}, rates: []float64{0.5},
		out: out,
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("empty workload")
	}
	if len(rep.ClosedLoop) != 2 || len(rep.OpenLoop) != 2 {
		t.Fatalf("%d closed- and %d open-loop points, want 2 and 2", len(rep.ClosedLoop), len(rep.OpenLoop))
	}
	for i, sc := range cfg.shards {
		c, o := rep.ClosedLoop[i], rep.OpenLoop[i]
		if want := fmt.Sprintf("closed-p1-s%d", sc); c.Name != want {
			t.Fatalf("closed-loop point %d is %q, want %q", i, c.Name, want)
		}
		if c.Failures != 0 || c.Served != rep.Requests || c.ThroughputRPS <= 0 {
			t.Fatalf("%s: served %d of %d, %d failures, %.0f req/s", c.Name, c.Served, rep.Requests, c.Failures, c.ThroughputRPS)
		}
		if want := fmt.Sprintf("open-p1-s%d-r0.50", sc); o.Name != want {
			t.Fatalf("open-loop point %d is %q, want %q", i, o.Name, want)
		}
		if o.Failures != 0 || o.Requests != rep.Requests || o.AchievedRPS <= 0 {
			t.Fatalf("%s: %d of %d requests, %d failures, %.0f req/s", o.Name, o.Requests, rep.Requests, o.Failures, o.AchievedRPS)
		}
	}
}
