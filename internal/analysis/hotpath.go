package analysis

import (
	"go/ast"
	"go/types"
)

// Hotpath returns the analyzer that checks functions annotated
// `//reallocvet:hotpath` for allocation-causing constructs. It encodes
// the discipline the alloc gate (alloc_gate_test.go) measures at
// runtime: the steady-state hot path must not allocate, so the
// constructs that reliably do are flagged at analysis time —
//
//   - string<->[]byte (and []rune) conversions
//   - map and slice composite literals
//   - closures that capture local variables
//   - fmt.* calls
//   - interface boxing (concrete value converted, passed, assigned,
//     or returned as an interface)
//   - append through a slice with no visible capacity provisioning
//     (no make-with-cap, no reslice) in the same function
//   - time.Now() — dispatch stamps must use the package's monotonic
//     int64 helper (one clock read, no wall time)
//
// Allocations that are deliberate (error paths, amortized growth)
// carry a `//reallocvet:allow hotpath (reason)` line, so every
// exception is a documented decision.
func Hotpath() *Analyzer {
	a := &Analyzer{
		Name:      "hotpath",
		Doc:       "flag allocation-causing constructs in //reallocvet:hotpath functions",
		NeedTypes: true,
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !hasDirective(fn.Doc, "hotpath") {
					continue
				}
				checkHotFunc(pass, fn)
			}
		}
		return nil
	}
	return a
}

func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	info := pass.Info
	// A slice literal ranged over directly (`for _, v := range []T{...}`)
	// never escapes; the compiler keeps it on the stack, and the alloc
	// gate confirms 0 allocs/op for such loops. Don't flag those.
	rangedLits := map[*ast.CompositeLit]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if rng, ok := n.(*ast.RangeStmt); ok {
			if lit, ok := rng.X.(*ast.CompositeLit); ok {
				rangedLits[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, fn, n)
		case *ast.CompositeLit:
			if rangedLits[n] {
				return true
			}
			switch typeOf(info, n).Underlying().(type) {
			case *types.Map:
				pass.Reportf(n.Pos(), "map literal allocates in hot path %s", fn.Name.Name)
			case *types.Slice:
				pass.Reportf(n.Pos(), "slice literal allocates in hot path %s", fn.Name.Name)
			}
		case *ast.FuncLit:
			if name, pos, ok := captures(pass, fn, n); ok {
				pass.Reportf(pos.Pos(), "closure captures %q and allocates in hot path %s", name, fn.Name.Name)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) != len(n.Rhs) {
					break // multi-value form; conversions there are covered at the call
				}
				if boxes(info, typeOf(info, n.Lhs[i]), rhs) {
					pass.Reportf(rhs.Pos(), "assignment boxes %s into interface %s in hot path %s",
						typeStr(info, rhs), typeOf(info, n.Lhs[i]), fn.Name.Name)
				}
			}
		case *ast.ReturnStmt:
			checkHotReturn(pass, fn, n)
		}
		return true
	})
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr) {
	info := pass.Info

	// Type conversion T(x)?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, typeOf(info, call.Args[0])
		switch {
		case stringByteConv(dst, src):
			pass.Reportf(call.Pos(), "%s(%s) conversion copies and allocates in hot path %s",
				types.TypeString(dst, nil), typeStr(info, call.Args[0]), fn.Name.Name)
		case boxes(info, dst, call.Args[0]):
			pass.Reportf(call.Pos(), "conversion boxes %s into interface %s in hot path %s",
				typeStr(info, call.Args[0]), dst, fn.Name.Name)
		}
		return
	}

	// Package-qualified calls: fmt.*, time.Now.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[x].(*types.PkgName); ok {
				switch {
				case pn.Imported().Path() == "fmt":
					pass.Reportf(call.Pos(), "fmt.%s allocates in hot path %s", sel.Sel.Name, fn.Name.Name)
					return // don't double-report its args as boxing
				case pn.Imported().Path() == "time" && sel.Sel.Name == "Now":
					pass.Reportf(call.Pos(), "time.Now in hot path %s: use the monotonic int64 stamp helper (cf. shard.monotonicNS)", fn.Name.Name)
					return
				}
			}
		}
	}

	// Builtin append without visible capacity provisioning.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" && !appendProvisioned(fn, call) {
				pass.Reportf(call.Pos(), "append through %s with no visible capacity provisioning (make with cap, or reslice) in hot path %s",
					types.ExprString(call.Args[0]), fn.Name.Name)
			}
			return
		}
	}

	// Interface boxing at ordinary call boundaries.
	sig, ok := typeOf(info, call.Fun).Underlying().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if boxes(info, pt, arg) {
			pass.Reportf(arg.Pos(), "argument boxes %s into interface %s in hot path %s",
				typeStr(info, arg), pt, fn.Name.Name)
		}
	}
}

func checkHotReturn(pass *Pass, fn *ast.FuncDecl, ret *ast.ReturnStmt) {
	info := pass.Info
	sig, ok := typeOf(info, fn.Name).(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return // bare return or multi-value forwarding
	}
	for i, res := range ret.Results {
		if boxes(info, sig.Results().At(i).Type(), res) {
			pass.Reportf(res.Pos(), "return boxes %s into interface %s in hot path %s",
				typeStr(info, res), sig.Results().At(i).Type(), fn.Name.Name)
		}
	}
}

// captures reports the first local variable of the enclosing function
// that the literal captures (package-level variables are not captures
// and cost nothing; a capture forces a heap-allocated closure).
func captures(pass *Pass, fn *ast.FuncDecl, lit *ast.FuncLit) (string, ast.Node, bool) {
	var name string
	var at ast.Node
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Declared inside the enclosing function but outside the literal.
		if v.Pos() >= fn.Pos() && v.Pos() <= fn.End() && (v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			name, at = id.Name, id
		}
		return true
	})
	return name, at, name != ""
}

// appendProvisioned reports whether the function visibly provisions
// capacity for append's destination: the destination is itself a
// reslice expression, or the same expression is somewhere assigned a
// make with an explicit capacity or a reslice of itself.
func appendProvisioned(fn *ast.FuncDecl, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return true
	}
	if _, ok := call.Args[0].(*ast.SliceExpr); ok {
		return true // append(x[:0], ...) reuses x's backing array
	}
	root := types.ExprString(call.Args[0])
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			if types.ExprString(lhs) != root {
				continue
			}
			switch rhs := as.Rhs[i].(type) {
			case *ast.CallExpr:
				if id, ok := rhs.Fun.(*ast.Ident); ok && id.Name == "make" && len(rhs.Args) == 3 {
					found = true
				}
			case *ast.SliceExpr:
				found = true // x = x[:0] style reuse
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------
// shared type helpers
// ---------------------------------------------------------------------

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return types.Typ[types.Invalid]
}

func typeStr(info *types.Info, e ast.Expr) string {
	return types.TypeString(typeOf(info, e), nil)
}

func isIface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether assigning expr to destination type dst converts
// a concrete value into an interface (which allocates unless the value
// is pointer-shaped and escapes analysis — the hot-path discipline
// forbids relying on that).
func boxes(info *types.Info, dst types.Type, expr ast.Expr) bool {
	if !isIface(dst) {
		return false
	}
	src := typeOf(info, expr)
	if src == nil || isIface(src) {
		return false
	}
	if b, ok := src.Underlying().(*types.Basic); ok && (b.Kind() == types.UntypedNil || b.Kind() == types.Invalid) {
		return false
	}
	return true
}

func stringByteConv(dst, src types.Type) bool {
	return (isStringT(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStringT(src))
}

func isStringT(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// exprRoot returns the leftmost identifier path of an expression
// ("sc.live" for sc.live, "buf" for *buf), or "" when it has none.
func exprRoot(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if r := exprRoot(e.X); r != "" {
			return r + "." + e.Sel.Name
		}
	case *ast.StarExpr:
		return exprRoot(e.X)
	case *ast.UnaryExpr:
		return exprRoot(e.X)
	case *ast.IndexExpr:
		return exprRoot(e.X)
	case *ast.SliceExpr:
		return exprRoot(e.X)
	case *ast.ParenExpr:
		return exprRoot(e.X)
	case *ast.CallExpr:
		return exprRoot(e.Fun)
	}
	return ""
}
