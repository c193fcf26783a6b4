// Command bench is the repository's benchmark: five workloads from the
// bare Theorem 1 stack to the replicated daemon, measured end to end with
// tracing off and layer by layer with tracing on. README.md has the
// definitions; ../BENCHMARK.json is the contract the numbers are judged by.
//
//	bash bench/run.sh --workload stack_churn --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                  # every workload, both passes, one report
//	bash bench/run.sh --compare a.json b.json   # two reports against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

var workloads = []workload{stackChurn, stackStorm, shardWAL, serveDurable, serveRepl}

// result is the last line of standard output of a one-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and print its result line (default: run all of them, each in a fresh process, and write a report)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "on-clock time to measure for")
		trace   = flag.Int("trace", 0, "1: trace every other round, run the ladder, and print the per-layer metrics in place of the end-to-end ones")
		out     = flag.String("out", "", "with no -workload: write the report here (default bench/out/report-seed<seed>.json)")
		compare = flag.Bool("compare", false, "compare the two report files given as arguments against the bounds")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareReports(flag.Args())
	case *name == "":
		err = runAll(*seed, *seconds, *out)
	default:
		err = runOne(*name, *seed, *seconds, *trace != 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// benchDir is the benchmark's directory in the checkout the command was
// started from: scratch files and span dumps stay under it.
const benchDir = "bench"

// runOne measures one workload in this process and prints its result.
func runOne(name string, seed int64, seconds float64, trace bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if _, err := os.Stat(filepath.Join(benchDir, "go.mod")); err != nil {
		return fmt.Errorf("run from the root of the checkout: %w", err)
	}
	outDir := filepath.Join(benchDir, "out")
	tmp := filepath.Join(outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	r := &run{seed: seed, trace: trace, tmp: tmp, outDir: outDir, w: w}
	if trace {
		// The dump is rewritten by every traced run of the workload.
		if err := os.RemoveAll(filepath.Join(outDir, "trace-"+name+".jsonl")); err != nil {
			return err
		}
		// Half the budget for the rounds; the ladder takes the rest.
		seconds /= 2
	}
	if err := r.measure(seconds); err != nil {
		return err
	}

	var values map[string]float64
	defs := endToEnd
	if trace {
		ladder, err := r.ladder()
		if err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		values, defs = r.perLayerValues(ladder), perLayer
	} else {
		var err error
		if values, err = r.endToEndValues(); err != nil {
			return err
		}
	}
	ms, err := report(defs, values)
	if err != nil {
		return err
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "bench: check failed:", p)
	}
	res := result{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d rounds (%d traced), %d requests, %d failed\n",
		name, seed, r.rounds, r.tracedN, r.attempted, r.failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d failed checks, %d failed requests", name, len(r.problems), r.failed)
	}
	return nil
}
