package main

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// TestBenchmarkJSON keeps BENCHMARK.json and the benchmark's own tables
// the same: a metric the program prints and the contract does not name,
// or the reverse, is refused by the driver before a single run.
func TestBenchmarkJSON(t *testing.T) {
	want, err := contract()
	if err != nil {
		t.Fatal(err)
	}
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the tables in metrics.go; run go test -run TestBenchmarkJSON -update", path)
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
}
