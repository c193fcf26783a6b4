package analysis

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestLayeringFixture runs the layering analyzer over a synthetic
// module ("lay") in syntax-only mode: rules tables are data, so the
// fixture injects its own, including a package with no rule at all and
// an external import that never needs to resolve.
func TestLayeringFixture(t *testing.T) {
	rules := map[string]LayerRule{
		"lay/dep":  {Note: "stdlib-only leaf"},
		"lay/leaf": {Note: "declared stdlib-only, imports anyway"},
		"lay/app":  {Internal: []string{"lay/dep"}},
		// lay/rogue intentionally missing.
	}
	runFixture(t, LoadSyntax, "layering", Layering("lay", rules))
}

// TestDefaultRulesCoverTree pins the rules table to the real tree in
// both directions: every package in the module has a rule, and every
// rule names a package that still exists (no stale entries).
func TestDefaultRulesCoverTree(t *testing.T) {
	pkgs, err := goList("../..", []string{"list", "-json", "--", "./..."})
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	inTree := map[string]bool{}
	for _, p := range pkgs {
		inTree[p.ImportPath] = true
	}
	rules := DefaultLayerRules()
	for p := range inTree {
		if _, ok := rules[p]; !ok {
			t.Errorf("package %s has no layering rule; add one to DefaultLayerRules", p)
		}
	}
	for _, p := range slices.Sorted(maps.Keys(rules)) {
		if !inTree[p] {
			t.Errorf("layering rule for %s is stale: no such package in the tree", p)
		}
	}
}

// TestDefaultRulesAcyclic proves the sanctioned import DAG is actually
// a DAG: a cycle in the table would let two layers sanction each other.
func TestDefaultRulesAcyclic(t *testing.T) {
	rules := DefaultLayerRules()
	const (
		white = iota
		grey
		black
	)
	state := map[string]int{}
	var visit func(p string, trail []string)
	visit = func(p string, trail []string) {
		switch state[p] {
		case grey:
			t.Fatalf("layering rules contain an import cycle: %s", strings.Join(append(trail, p), " -> "))
		case black:
			return
		}
		state[p] = grey
		for _, dep := range rules[p].Internal {
			visit(dep, append(trail, p))
		}
		state[p] = black
	}
	for _, p := range slices.Sorted(maps.Keys(rules)) {
		visit(p, nil)
	}
}

// TestDefaultRulesSortedDeps is a hygiene check: each rule's Internal
// list is sorted, so diffs to the table stay reviewable.
func TestDefaultRulesSortedDeps(t *testing.T) {
	for p, r := range DefaultLayerRules() {
		if !sort.StringsAreSorted(r.Internal) {
			t.Errorf("rule for %s: Internal list is not sorted: %v", p, r.Internal)
		}
	}
}
