// Architecture-hygiene test: the repo's layering is enforced by the
// declarative import-DAG analyzer in internal/analysis (the same one
// cmd/reallocvet runs in CI), so a violation fails `go test` instead of
// surviving as an unwritten convention.
//
// The sanctioned layering lives in one place now —
// analysis.DefaultLayerRules — which covers every package in the
// module, bottom-up: the stdlib-only leaves (mathx, hdr, ident,
// analysis), the currencies and model (metrics, jobs, align, sched,
// wal, pma), the schedulers (core, trim, edf, naive, ...), the
// composition layers (multi, alignsched, shard), the harnesses, the
// public API, and the commands. This test replaces the old ad-hoc
// foundation-only import walk: the analyzer checks all packages, and
// because no internal rule sanctions "repro", it also subsumes the old
// no-upward-imports test (internals must never depend on the public
// API).
//
// TestNoDeadDeclarations is the reachability twin: a declaration no
// non-test file references is deleted or kept with a written reason.
package realloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"testing"

	"repro/internal/analysis"
)

func TestArchLayering(t *testing.T) {
	pkgs, err := analysis.Load(".", analysis.LoadSyntax, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	layering := analysis.Layering(analysis.ModulePath, analysis.DefaultLayerRules())
	for _, d := range analysis.Run(pkgs, []*analysis.Analyzer{layering}) {
		t.Errorf("%s", d)
	}
}

// deadKeep lists the package-level declarations that no non-test file
// references but that stay, one reason each. TestNoDeadDeclarations
// fails on an unreferenced declaration missing here and on an entry
// here that the scan no longer reports, so the list cannot rot.
var deadKeep = map[string]string{
	// Reference oracles the schedulers' tests compare against.
	"repro/internal/feasible.IsFeasible":       "EDF feasibility oracle for naive's and core's tests",
	"repro/internal/feasible.MatchingFeasible": "independent bipartite-matching oracle that cross-checks IsFeasible",
	"repro/internal/feasible.Underallocated":   "γ-underallocation oracle for workload's and multi's tests",
	"repro/internal/pma.PMA.SelfCheck":         "the PMA's invariant check, as every scheduler carries one",
	// Called by tests of other packages, which cannot reach a helper
	// declared in this package's _test.go files.
	"repro/internal/analysis.LoadSyntax":        "TestArchLayering's load mode",
	"repro/internal/jobs.Window.ContainsWindow": "align's property tests of ALIGNED(W) and laminarity",
	"repro/internal/jobs.Window.Overlaps":       "align's laminarity and Lemma 2 tests",
	"repro/internal/sched.RunChecked":           "the invariant-checked replay loop of the schedulers' tests",
	"repro/internal/workload.Burst":             "the burst stream of the replay goldens and crash tests",
	"repro/internal/repl.Follower.PromoteNow":   "the promotion drills in the external repl_test package",
	"repro/internal/repl.Source.Fenced":         "the fencing drill in the external repl_test package",
}

// TestNoDeadDeclarations is prove-or-remove, machine-checked: every
// package-level func, method, type, var and const in the module must be
// referenced by some non-test file of the module or of bench/.
//
// Each package is type-checked on its own against export data, so an
// importer sees a different types.Object than the declaring package;
// declarations are therefore keyed by import path, receiver type name
// and name. A method also counts as used when its receiver (or a
// pointer to it) satisfies an interface that names it — one declared
// in the tree or used as a type anywhere in it — or when the standard
// library calls it through an interface the tree never names.
func TestNoDeadDeclarations(t *testing.T) {
	mod, err := analysis.Load(".", analysis.LoadTypes, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	benchPkgs, err := analysis.Load("bench", analysis.LoadTypes, "./...")
	if err != nil {
		t.Fatalf("load bench: %v", err)
	}
	pkgs := append(benchPkgs, mod...)

	used := map[string]bool{}
	ifaces := map[string]*types.Interface{}
	for _, p := range pkgs {
		self := selfUses(p)
		for id, obj := range p.Info.Uses {
			if obj.Pkg() != nil && !self[id] {
				used[declKey(obj)] = true
			}
		}
		// Interfaces a value can be converted to: declared in the tree,
		// written as a type, or a parameter of a called function.
		var ts []types.Type
		for _, tv := range p.Info.Types {
			ts = append(ts, tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					ts = append(ts, sig.Params().At(i).Type())
				}
			}
		}
		for _, name := range p.Types.Scope().Names() {
			ts = append(ts, p.Types.Scope().Lookup(name).Type())
		}
		for _, t := range ts {
			if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[types.TypeString(it, nil)] = it
			}
		}
	}

	dead := map[string]bool{}
	for _, p := range mod {
		public := p.Path == analysis.ModulePath || p.Path == analysis.ModulePath+"/client"
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if public && obj.Exported() || name == "main" || name == "init" || name == "_" {
				continue
			}
			if !used[declKey(obj)] {
				dead[declKey(obj)] = true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if public && m.Exported() || used[declKey(m)] || stdlibMethod[m.Name()] || satisfies(named, m, ifaces) {
					continue
				}
				dead[declKey(m)] = true
			}
		}
	}

	var keys []string
	for k := range dead {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if deadKeep[k] == "" {
			t.Errorf("%s: no non-test file references it; delete it or add it to deadKeep with a reason", k)
		}
	}
	for k := range deadKeep {
		if !dead[k] {
			t.Errorf("deadKeep: %s is referenced or gone; drop the entry", k)
		}
	}
}

// stdlibMethod names the methods the standard library calls through
// interfaces (fmt.Stringer, error, sort.Interface, heap.Interface,
// json.Marshaler, errors.Is/As) that the tree need not name itself.
var stdlibMethod = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// declKey names a package-level object independently of which
// type-check produced it: "path.Name" or "path.Recv.Name".
func declKey(obj types.Object) string {
	key := obj.Pkg().Path() + "."
	if recv := recvType(obj); recv != nil {
		key += recv.Name() + "."
	}
	return key + obj.Name()
}

// recvType returns the named receiver type of a method, or nil.
func recvType(obj types.Object) *types.TypeName {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	rt := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// selfUses returns the identifiers in p that refer to the declaration
// enclosing them — recursion, or a type named in its own methods — so
// that a declaration does not keep itself alive.
func selfUses(p *analysis.Package) map[*ast.Ident]bool {
	self := map[*ast.Ident]bool{}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			owners := map[string]bool{}
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := p.Info.Defs[d.Name]
				owners[declKey(fn)] = true
				if recv := recvType(fn); recv != nil {
					owners[declKey(recv)] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						owners[declKey(p.Info.Defs[ts.Name])] = true
					}
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := p.Info.Uses[id]; obj != nil && obj.Pkg() != nil && owners[declKey(obj)] {
						self[id] = true
					}
				}
				return true
			})
		}
	}
	return self
}

// satisfies reports whether named or *named has every method of some
// interface that declares m. Signatures are compared as strings because
// the interface and the type may come from different type-checks.
func satisfies(named *types.Named, m *types.Func, ifaces map[string]*types.Interface) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	for _, it := range ifaces {
		declares, all := false, true
		for i := 0; all && i < it.NumMethods(); i++ {
			im := it.Method(i)
			declares = declares || im.Name() == m.Name()
			sel := mset.Lookup(im.Pkg(), im.Name())
			all = all && sel != nil && sigKey(sel.Obj().Type()) == sigKey(im.Type())
		}
		if declares && all {
			return true
		}
	}
	return false
}

// sigKey prints a signature without parameter names or receiver.
func sigKey(t types.Type) string {
	sig := t.(*types.Signature)
	unnamed := func(tu *types.Tuple) *types.Tuple {
		vs := make([]*types.Var, tu.Len())
		for i := range vs {
			vs[i] = types.NewParam(token.NoPos, nil, "", tu.At(i).Type())
		}
		return types.NewTuple(vs...)
	}
	return types.TypeString(types.NewSignatureType(nil, nil, nil, unnamed(sig.Params()), unnamed(sig.Results()), sig.Variadic()), nil)
}
