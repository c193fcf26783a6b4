// Command reallocvet is the repo's multichecker: it runs the four
// custom analyzers (layering, hotpath, poolhygiene, determinism) from
// internal/analysis over the tree and exits non-zero on any finding.
//
// Usage:
//
//	go run ./cmd/reallocvet ./...        # analyze packages
//	go run ./cmd/reallocvet -selftest    # prove each analyzer fires
//
// The self-test is what makes a clean run mean something: before CI
// trusts one, it injects one known violation per analyzer into
// a scratch tree and requires the analyzer to flag it — so a silently
// broken analyzer cannot masquerade as a clean tree.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	selftest := flag.Bool("selftest", false, "inject one known violation per analyzer and require each to be flagged")
	flag.Parse()

	if *selftest {
		if err := runSelftest(); err != nil {
			fmt.Fprintf(os.Stderr, "reallocvet selftest: FAIL: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("reallocvet selftest: ok (all 4 analyzers flag their injected violation)")
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", analysis.LoadTypes, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "reallocvet: load: %v\n", err)
		os.Exit(1)
	}
	diags := analysis.Run(pkgs, analysis.Suite())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "reallocvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
	fmt.Printf("reallocvet: ok — %d packages, 0 findings\n", len(pkgs))
}
