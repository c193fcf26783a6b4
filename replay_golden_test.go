// Golden replay: pin the string-level results of the public API so a
// refactor of the internals (such as the interned-ID/pooled-buffer hot
// path) can prove it preserved behavior byte for byte.
//
// The golden files under testdata/ were generated from the pre-refactor
// (PR 3) stack with `go test -run TestReplayGolden -update-golden`; the
// test renders the same deterministic request streams through today's
// stack — every per-request cost, every error string, and the final
// assignment — and requires the rendering to be identical. Regenerate
// only when a change is MEANT to alter observable behavior, and say so
// in the commit.
package realloc

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden replay files")

// replayCase is one pinned (stream, stack) combination. A batch above 1
// serves the stream in chunks of that size through ApplyBatch instead of
// one Apply per request.
type replayCase struct {
	reqs  []jobs.Request
	build func() Scheduler
	batch int
}

// replayCases are the pinned combinations, keyed by the name of their
// testdata/replay_<name>.golden file. Streams must be deterministic
// functions of their seed; stacks must be the single-threaded builds
// (the sharded front-end is nondeterministic by design and is covered by
// the differential harness instead).
func replayCases(t *testing.T) map[string]replayCase {
	t.Helper()
	mixed, err := workload.Mixed(workload.MixedConfig{Seed: 7, Machines: 4, Horizon: 1 << 12, Steps: 3000})
	if err != nil {
		t.Fatalf("mixed workload: %v", err)
	}
	burstCfg := workload.BurstConfig{Seed: 11, Machines: 4}
	if err := (&burstCfg).Fill(); err != nil {
		t.Fatalf("burst config: %v", err)
	}
	burstCfg.Waves = 6
	burst, err := workload.Burst(burstCfg)
	if err != nil {
		t.Fatalf("burst workload: %v", err)
	}
	theorem1 := func() Scheduler { return New(WithMachines(4)) }
	return map[string]replayCase{
		"mixed_theorem1_m4": {reqs: mixed, build: theorem1},
		"burst_theorem1_m4": {reqs: burst, build: theorem1},
		"burst_batch64_m4":  {reqs: burst, build: theorem1, batch: 64},
	}
}

// renderReplay serves the stream (in chunks of batch when it exceeds 1)
// and renders everything a string-API caller can observe: per-request
// costs and error texts, then the final assignment sorted by name.
func renderReplay(s Scheduler, reqs []jobs.Request, batch int) string {
	var b strings.Builder
	if batch > 1 {
		for off := 0; off < len(reqs); off += batch {
			chunk := reqs[off:min(off+batch, len(reqs))]
			costs, err := ApplyBatch(s, chunk)
			var be *BatchError
			if err != nil {
				be, _ = err.(*BatchError)
			}
			for i := range chunk {
				var e error
				if be != nil {
					e = be.At(i)
				}
				renderStep(&b, off+i, costs[i], e)
			}
		}
	} else {
		for i, r := range reqs {
			c, err := Apply(s, r)
			renderStep(&b, i, c, err)
		}
	}
	asn := s.Assignment()
	names := make([]string, 0, len(asn))
	for name := range asn {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("-- final assignment --\n")
	for _, name := range names {
		p := asn[name]
		fmt.Fprintf(&b, "%s m%d t%d\n", name, p.Machine, p.Slot)
	}
	return b.String()
}

func renderStep(b *strings.Builder, i int, c Cost, err error) {
	if err != nil {
		fmt.Fprintf(b, "%d err %v\n", i, err)
		return
	}
	fmt.Fprintf(b, "%d r%d m%d\n", i, c.Reallocations, c.Migrations)
}

func TestReplayGolden(t *testing.T) {
	cases := replayCases(t)
	// A golden without a case is a deleted case's leftover: nothing pins
	// it any more, so it must go with the case.
	files, err := filepath.Glob(filepath.Join("testdata", "replay_*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(f), "replay_"), ".golden")
		if _, ok := cases[name]; !ok {
			t.Errorf("%s has no replay case; delete it or add the case", f)
		}
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			got := renderReplay(tc.build(), tc.reqs, tc.batch)
			path := filepath.Join("testdata", "replay_"+name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Fatalf("replay %s diverged from the pre-refactor golden (len got %d, want %d): first diff at byte %d",
					name, len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
