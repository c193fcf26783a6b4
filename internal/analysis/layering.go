package analysis

import (
	"go/ast"
	"sort"
	"strings"
)

// A LayerRule declares what one package may import. The zero rule is
// the strictest: standard library only — that is how the leaf packages
// (mathx, hdr, ident, analysis) are pinned.
//
// The rule format is SPI-ready: when an external service-provider
// interface lands, its module prefix goes into External for exactly
// the packages allowed to touch it, and nothing else changes.
type LayerRule struct {
	// Internal lists the allowed module-internal imports, as full
	// import paths ("repro/internal/jobs"). Anything under the module
	// path not listed here is a violation. An empty list means the
	// package is a stdlib-only leaf.
	Internal []string
	// External lists allowed external module path prefixes. Empty
	// means none: the repo currently has zero external dependencies,
	// and the table keeps it that way.
	External []string
	// Note is the human rationale for the rule, echoed in diagnostics
	// so a violation message teaches the layering instead of just
	// pointing at the table.
	Note string
}

// Layering returns the import-DAG analyzer for the given rule table,
// keyed by import path. modulePath identifies module-internal imports
// (imports of modulePath or modulePath/...).
//
// Three things are violations: a package missing from the table (every
// package must have a declared layer — adding a package means declaring
// its imports), a module-internal import not in the package's Internal
// list, and an external-module import not matching an External prefix.
func Layering(modulePath string, rules map[string]LayerRule) *Analyzer {
	return &Analyzer{
		Name: "layering",
		Doc: "enforce the declarative import DAG: every package has a rule, " +
			"module-internal imports must be sanctioned, external modules are opt-in per package",
		Run: func(pass *Pass) error {
			rule, ok := rules[pass.Path]
			if !ok {
				if len(pass.Files) > 0 {
					pass.Reportf(pass.Files[0].Package,
						"package %s has no layering rule; add one to the table in internal/analysis/layering.go", pass.Path)
				}
				return nil
			}
			allowed := make(map[string]bool, len(rule.Internal))
			for _, p := range rule.Internal {
				allowed[p] = true
			}
			for _, f := range pass.Files {
				for _, imp := range f.Imports {
					p := strings.Trim(imp.Path.Value, `"`)
					pass.checkImport(imp, p, modulePath, rule, allowed)
				}
			}
			return nil
		},
	}
}

func (pass *Pass) checkImport(imp *ast.ImportSpec, p, modulePath string, rule LayerRule, allowed map[string]bool) {
	note := ""
	if rule.Note != "" {
		note = " (" + rule.Note + ")"
	}
	switch {
	case p == modulePath || strings.HasPrefix(p, modulePath+"/"):
		if !allowed[p] {
			pass.Reportf(imp.Pos(), "%s imports %s, which is not in its sanctioned layer set %v%s",
				pass.Path, p, rule.Internal, note)
		}
	case strings.Contains(firstElem(p), "."):
		for _, pre := range rule.External {
			if p == pre || strings.HasPrefix(p, pre+"/") {
				return
			}
		}
		pass.Reportf(imp.Pos(), "%s imports external module %s; the repo is zero-dependency%s",
			pass.Path, p, note)
	}
}

func firstElem(p string) string {
	first, _, _ := strings.Cut(p, "/")
	return first
}

// DefaultLayerRules is the repo's sanctioned import DAG, bottom-up.
// This table is the single source of truth for layering: arch_test.go
// and cmd/reallocvet both run the Layering analyzer over it, and a new
// package fails the gate until it gets an entry here.
func DefaultLayerRules() map[string]LayerRule {
	const (
		mathx     = "repro/internal/mathx"
		fault     = "repro/internal/fault"
		hdr       = "repro/internal/hdr"
		ident     = "repro/internal/ident"
		jobs      = "repro/internal/jobs"
		metrics   = "repro/internal/metrics"
		align     = "repro/internal/align"
		sched     = "repro/internal/sched"
		wal       = "repro/internal/wal"
		core      = "repro/internal/core"
		trim      = "repro/internal/trim"
		multi     = "repro/internal/multi"
		alignsch  = "repro/internal/alignsched"
		shard     = "repro/internal/shard"
		workload  = "repro/internal/workload"
		feasible  = "repro/internal/feasible"
		edf       = "repro/internal/edf"
		naive     = "repro/internal/naive"
		lowerb    = "repro/internal/lowerbound"
		mixed     = "repro/internal/mixed"
		sized     = "repro/internal/sized"
		pma       = "repro/internal/pma"
		trace     = "repro/internal/trace"
		stress    = "repro/internal/stress"
		viz       = "repro/internal/viz"
		sim       = "repro/internal/sim"
		analysisP = "repro/internal/analysis"
		wire      = "repro/internal/wire"
		repl      = "repro/internal/repl"
		server    = "repro/internal/server"
		clientP   = "repro/client"
		root      = "repro"
	)
	leaf := LayerRule{Note: "stdlib-only leaf"}
	return map[string]LayerRule{
		// --- leaves: stdlib only ---
		mathx:     leaf,
		fault:     {Note: "the unified error vocabulary is a stdlib-only leaf: anything may alias it"},
		hdr:       leaf,
		ident:     leaf,
		analysisP: {Note: "the static-analysis toolkit is itself a stdlib-only leaf"},

		// --- currencies and model ---
		metrics: {Internal: []string{hdr}, Note: "cost/latency currencies; hdr supplies the histogram"},
		jobs:    {Internal: []string{mathx}, Note: "the shared job model"},
		align:   {Internal: []string{jobs, mathx}, Note: "pure window geometry"},
		sched:   {Internal: []string{fault, jobs, metrics}, Note: "the scheduler interface layer"},
		wal:     {Internal: []string{fault, jobs}, Note: "durability codecs speak the job model only"},
		pma:     {Internal: []string{mathx}, Note: "packed-memory array, integer helpers only"},

		// --- single-machine schedulers ---
		core: {Internal: []string{align, ident, jobs, mathx, metrics, sched},
			Note: "the paper's reservation scheduler: model, currencies, geometry, IDs, and the interface it implements — nothing else"},
		trim: {Internal: []string{align, ident, jobs, mathx, metrics, sched},
			Note: "window trimming wraps any aligned scheduler; same layer as core"},
		edf:    {Internal: []string{jobs, metrics, sched}, Note: "baseline scheduler"},
		naive:  {Internal: []string{jobs, metrics, sched}, Note: "baseline scheduler"},
		lowerb: {Internal: []string{jobs, metrics, sched}, Note: "lower-bound oracle"},
		mixed:  {Internal: []string{jobs, metrics}, Note: "mixed-workload cost model"},
		sized:  {Internal: []string{jobs, mathx, metrics}, Note: "sized-job helpers"},

		// --- composition layers ---
		multi:    {Internal: []string{ident, jobs, metrics, sched}, Note: "multi-machine delegation over any sched.Scheduler"},
		alignsch: {Internal: []string{align, ident, jobs, metrics, sched}, Note: "alignment front-end over any sched.Scheduler"},
		shard: {Internal: []string{fault, hdr, ident, jobs, metrics, sched, wal},
			Note: "concurrent front-end: shards any sched.Scheduler, logs to wal, measures with hdr"},

		// --- harnesses and tooling ---
		feasible: {Internal: []string{jobs}, Note: "independent feasibility oracle for tests"},
		viz:      {Internal: []string{jobs}, Note: "schedule rendering"},
		workload: {Internal: []string{jobs, mathx}, Note: "scenario generators"},
		trace:    {Internal: []string{jobs, metrics, sched}, Note: "trace record/replay"},
		stress:   {Internal: []string{jobs, sched, workload}, Note: "stress drivers"},
		sim: {Internal: []string{align, alignsch, core, edf, feasible, jobs, lowerb, mathx,
			metrics, mixed, multi, naive, pma, sched, shard, sized, trim, workload},
			Note: "the experiment harness may drive every scheduler"},

		// --- serving stack ---
		wire: {Internal: []string{fault, jobs, wal},
			Note: "network frames reuse the WAL's request codec: the on-disk format is the wire format"},
		repl: {Internal: []string{fault, jobs, sched, shard, wal, wire},
			Note: "WAL shipping: reads segment bytes, speaks frames, replays into warm shard schedulers"},
		server: {Internal: []string{jobs, sched, shard, wire},
			Note: "the multi-tenant front-end drives sharded schedulers; it never touches the public API"},
		clientP: {Internal: []string{fault, jobs, wire},
			Note: "the client library speaks frames and the job model only — no scheduler imports"},

		// --- public API and commands ---
		root: {Internal: []string{alignsch, core, edf, fault, feasible, jobs, metrics, multi, naive, sched, shard, trim, wal},
			Note: "the public API composes the stacks; internals never import it back"},
		"repro/cmd/reallocbench": {Internal: []string{root, hdr, jobs, workload}},
		"repro/cmd/reallocsim":   {Internal: []string{sim}},
		"repro/cmd/realloctrace": {Internal: []string{root, core, edf, naive, sched, stress, trace, wal, workload}},
		"repro/cmd/reallocvet":   {Internal: []string{analysisP}, Note: "the multichecker wraps the analysis toolkit"},
		"repro/cmd/reallocd": {Internal: []string{root, repl, server, shard, wal},
			Note: "the daemon composes public-API schedulers into the server and replication stack"},
		"repro/cmd/reallocload": {Internal: []string{clientP, hdr, jobs, shard, workload},
			Note: "still a pure client on the wire; workload pregenerates the replay scenarios and shard's ring aims their hot keys"},

		// --- examples: drive the public API (sizedjobs/quickstart also
		// demo internal helpers directly) ---
		"repro/examples/adversary":  {Internal: []string{root}},
		"repro/examples/clinic":     {Internal: []string{root}},
		"repro/examples/cloud":      {Internal: []string{root}},
		"repro/examples/quickstart": {Internal: []string{root, viz}},
		"repro/examples/server":     {Internal: []string{root, clientP, server}},
		"repro/examples/sizedjobs":  {Internal: []string{jobs, sized}},
	}
}

// LayerRuleNames returns the sorted package paths covered by the table
// (used by tests asserting the table covers the whole tree).
func LayerRuleNames(rules map[string]LayerRule) []string {
	names := make([]string, 0, len(rules))
	for p := range rules {
		names = append(names, p)
	}
	sort.Strings(names)
	return names
}
