package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// The taxonomy-path check keeps an observability invariant true by
// construction: Stats.AbortReasons must sum to Stats.Aborts, which holds
// only if every path that fails a transaction attempt first records *why*.
// The abort bookkeeping in tx.go charges AbortReasons[tx.reason]
// unconditionally, so an engine conflict path that forgets to set tx.reason
// silently misattributes the abort to whatever reason the previous attempt
// left behind — a bug no test catches unless it asserts the exact taxonomy.
//
// Scope: packages that declare a `conflictSignal` type, the attempt's
// long-jump abort. Conflict exits are the constant-false returns of the two
// shapes the attempt's kind picks without an interface — reads,
// `func(tx *Tx, v *Var) (*Box, bool)`, which Tx.LoadBox calls, and commits,
// functions and methods whose sole parameter is *Tx and sole result is bool,
// which Tx.finishCommit calls — and any panic(conflictSignal{}) in the
// package. The check runs the function's CFG with the fact "an abort reason
// has been recorded on every path reaching this point" (merge = AND): a
// conflict exit is clean only when reason recording dominates it, so an
// assignment in one branch does not excuse a bare `return false` in a sibling
// branch. Recording is an assignment to a `.reason` field or a call whose
// callee — transitively, within the module — performs one. The callee summary
// is a may-analysis, so a delegating call marks all its successor paths
// recorded even when the callee records only on its failure branch; that
// over-approximation is deliberate (DESIGN.md §13) and keeps the delegation
// idiom (`if !tx.lockTouched(touched) { return false }`) clean.
func init() {
	RegisterCheck(&Check{
		Name: "taxonomy-path",
		Doc:  "every CFG path into a conflict exit must record tx.reason first",
		Run:  func(m *Module, report ReportFunc) { taxonomyPath(m, report) },
	})
}

// taxonomyPath runs the check over every package in scope and returns, per
// package path, the read- and commit-shaped functions that hold a conflict
// exit — the set TestTaxonomyPathCoverage pins, so a scope or shape rule that
// silently stops matching fails a test instead of passing vacuously.
func taxonomyPath(m *Module, report ReportFunc) map[string][]string {
	exits := make(map[string][]string)
	for _, p := range m.Pkgs {
		if _, ok := p.Types.Scope().Lookup("conflictSignal").(*types.TypeName); !ok {
			continue
		}
		tc := &taxonomyChecker{m: m, p: p, report: report, setsReason: make(map[*types.Func]bool)}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if checkTaxonomyPaths(tc, fd) {
					exits[p.Path] = append(exits[p.Path], funcName(fd))
				}
			}
		}
	}
	return exits
}

// checkTaxonomyPaths reports every conflict exit of fd that a path reaches
// without recording a reason, and whether fd is a read or a commit with a
// conflict-exit return.
func checkTaxonomyPaths(tc *taxonomyChecker, fd *ast.FuncDecl) bool {
	shaped := tc.isReadFunc(fd) || tc.isCommitFunc(fd)

	// Only analyze functions that contain a conflict exit at all.
	returns, panics := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			returns = returns || shaped && tc.isConflictReturn(n)
		case *ast.CallExpr:
			panics = panics || tc.isConflictPanic(n)
		}
		return true
	})
	if !returns && !panics {
		return false
	}

	// transfer: once a node records a reason (directly or by delegation),
	// the path is satisfied from there on.
	transfer := func(f Fact, n ast.Node) Fact {
		recorded := f.(bool)
		if recorded {
			return true
		}
		inspectLeaf(n, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if sel, ok := unwrap(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "reason" {
						recorded = true
					}
				}
			case *ast.CallExpr:
				if fn := calleeFunc(tc.p.Info, x); fn != nil && tc.fnSetsReason(fn, 0) {
					recorded = true
				}
			}
			return true
		})
		return recorded
	}

	g := BuildCFG(fd)
	in := Forward(g, Flow{
		Entry:    false,
		Transfer: transfer,
		// A conflict exit needs the reason on EVERY inbound path.
		Merge: func(a, b Fact) Fact { return a.(bool) && b.(bool) },
		Equal: func(a, b Fact) bool { return a == b },
	})

	for _, b := range g.Reachable() {
		entry, ok := in[b]
		if !ok {
			continue
		}
		recorded := entry.(bool)
		for _, n := range b.Nodes {
			// A call inside the exit statement itself (e.g. `return e.fail(tx)`)
			// runs before control leaves, so apply the node's effect first.
			recorded = transfer(recorded, n).(bool)
			if recorded {
				continue
			}
			switch n := n.(type) {
			case *ast.ReturnStmt:
				if shaped && tc.isConflictReturn(n) {
					tc.report(n.Pos(),
						"conflict exit reachable without tx.reason: a path into this return false in %s records no abort reason",
						funcName(fd))
				}
			case *ast.ExprStmt:
				if call, ok := unwrap(n.X).(*ast.CallExpr); ok && tc.isConflictPanic(call) {
					tc.report(n.Pos(),
						"conflictSignal reachable without tx.reason: a path into this panic in %s records no abort reason",
						funcName(fd))
				}
			}
		}
	}
	return returns
}

func lastResultIsBool(sig *types.Signature) bool {
	r := sig.Results()
	if r.Len() == 0 {
		return false
	}
	b, ok := r.At(r.Len() - 1).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Bool
}

type taxonomyChecker struct {
	m      *Module
	p      *Package
	report ReportFunc

	// setsReason memoizes "does this function (transitively) assign a
	// .reason field".
	setsReason map[*types.Func]bool
}

// isReadFunc reports whether fd is a plain function of a read's shape,
// func(tx *Tx, v *Var) (*Box, bool), matched by the type names.
func (tc *taxonomyChecker) isReadFunc(fd *ast.FuncDecl) bool {
	if fd.Recv != nil {
		return false
	}
	fn, ok := tc.p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	params, results := sig.Params(), sig.Results()
	return params.Len() == 2 && results.Len() == 2 &&
		isPtrToNamed(params.At(0).Type(), "Tx") &&
		isPtrToNamed(params.At(1).Type(), "Var") &&
		isPtrToNamed(results.At(0).Type(), "Box") && lastResultIsBool(sig)
}

// isCommitFunc reports whether fd is a function or method of a commit's
// shape: its sole parameter is *Tx and its sole result is bool.
func (tc *taxonomyChecker) isCommitFunc(fd *ast.FuncDecl) bool {
	fn, ok := tc.p.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 1 && sig.Results().Len() == 1 &&
		isPtrToNamed(sig.Params().At(0).Type(), "Tx") && lastResultIsBool(sig)
}

// isPtrToNamed reports whether t is *name for a named type called name.
func isPtrToNamed(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n := namedOrigin(ptr.Elem())
	return n != nil && n.Obj().Name() == name
}

// isConflictReturn reports whether ret's final result is constant false.
func (tc *taxonomyChecker) isConflictReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	tv, ok := tc.p.Info.Types[last]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Bool && !constant.BoolVal(tv.Value)
}

// isConflictPanic matches panic(conflictSignal{...}).
func (tc *taxonomyChecker) isConflictPanic(call *ast.CallExpr) bool {
	id, ok := unwrap(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return false
	}
	if b, ok := tc.p.Info.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "panic" {
		return false
	}
	n := namedOrigin(tc.p.Info.TypeOf(call.Args[0]))
	return n != nil && n.Obj().Name() == "conflictSignal"
}

// fnSetsReason reports (memoized, depth-capped) whether fn's body assigns a
// .reason field, directly or through module-internal callees.
func (tc *taxonomyChecker) fnSetsReason(fn *types.Func, depth int) bool {
	if depth > 3 {
		return false
	}
	if v, ok := tc.setsReason[fn]; ok {
		return v
	}
	tc.setsReason[fn] = false // cycle guard
	decl, ok := tc.m.FuncDecls[fn]
	if !ok || decl.Body == nil {
		return false
	}
	declPkg := tc.m.PkgForPos(decl.Pos())
	if declPkg == nil {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := unwrap(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "reason" {
					found = true
				}
			}
		case *ast.CallExpr:
			if callee := calleeFunc(declPkg.Info, n); callee != nil && callee != fn {
				if tc.fnSetsReason(callee, depth+1) {
					found = true
				}
			}
		}
		return true
	})
	tc.setsReason[fn] = found
	return found
}

// recvName renders the receiver type name of a method declaration.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
