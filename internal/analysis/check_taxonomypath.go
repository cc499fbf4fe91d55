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
// Scope: packages that declare an (unexported) `engine` interface with
// `read` and `commit` methods. Conflict exits are the constant-false returns
// of its implementers' read/commit methods and any panic(conflictSignal{})
// in the package. The check runs the function's CFG with the fact "an abort
// reason has been recorded on every path reaching this point" (merge = AND):
// a conflict exit is clean only when reason recording dominates it, so an
// assignment in one branch does not excuse a bare `return false` in a
// sibling branch. Recording is an assignment to a `.reason` field or a call
// whose callee — transitively, within the module — performs one; calls
// through the engine interface itself are trusted, each implementation being
// checked on its own. The callee summary is a may-analysis, so a delegating
// call marks all its successor paths recorded even when the callee records
// only on its failure branch; that over-approximation is deliberate
// (DESIGN.md §13) and keeps the delegation idiom
// (`if !e.revalidate(tx) { return false }`) clean.
func init() {
	RegisterCheck(&Check{
		Name: "taxonomy-path",
		Doc:  "every CFG path into an engine conflict exit must record tx.reason first",
		Run:  runTaxonomyPath,
	})
}

func runTaxonomyPath(m *Module, report ReportFunc) {
	for _, p := range m.Pkgs {
		iface := engineInterface(p)
		if iface == nil {
			continue
		}
		tc := &taxonomyChecker{m: m, p: p, iface: iface, report: report,
			setsReason: make(map[*types.Func]bool)}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkTaxonomyPaths(tc, fd)
			}
		}
	}
}

func checkTaxonomyPaths(tc *taxonomyChecker, fd *ast.FuncDecl) {
	isEngine := tc.isEngineConflictMethod(fd)

	// Only analyze functions that contain a conflict exit at all.
	hasExit := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if isEngine && tc.isConflictReturn(n) {
				hasExit = true
			}
		case *ast.CallExpr:
			if tc.isConflictPanic(n) {
				hasExit = true
			}
		}
		return !hasExit
	})
	if !hasExit {
		return
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
				if fn := calleeFunc(tc.p.Info, x); fn != nil &&
					(tc.isEngineIfaceMethod(fn) || tc.fnSetsReason(fn, 0)) {
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
				if isEngine && tc.isConflictReturn(n) {
					tc.report(n.Pos(),
						"conflict exit reachable without tx.reason: a path into this return false in %s.%s records no abort reason",
						recvName(fd), fd.Name.Name)
				}
			case *ast.ExprStmt:
				if call, ok := unwrap(n.X).(*ast.CallExpr); ok && tc.isConflictPanic(call) {
					tc.report(n.Pos(),
						"conflictSignal reachable without tx.reason: a path into this panic in %s records no abort reason",
						fd.Name.Name)
				}
			}
		}
	}
}

// engineInterface finds the package's unexported engine contract: an
// interface type named "engine" with read and commit methods.
func engineInterface(p *Package) *types.Interface {
	tn, ok := p.Types.Scope().Lookup("engine").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	hasRead, hasCommit := false, false
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "read":
			hasRead = true
		case "commit":
			hasCommit = true
		}
	}
	if !hasRead || !hasCommit {
		return nil
	}
	return iface
}

type taxonomyChecker struct {
	m      *Module
	p      *Package
	iface  *types.Interface
	report ReportFunc

	// setsReason memoizes "does this function (transitively) assign a
	// .reason field".
	setsReason map[*types.Func]bool
}

// isEngineConflictMethod reports whether fd is the read or commit method of
// a type implementing the engine interface.
func (tc *taxonomyChecker) isEngineConflictMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	if fd.Name.Name != "read" && fd.Name.Name != "commit" {
		return false
	}
	rt := tc.p.Info.TypeOf(fd.Recv.List[0].Type)
	if rt == nil {
		return false
	}
	return types.Implements(rt, tc.iface) ||
		types.Implements(types.NewPointer(rt), tc.iface)
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

// isEngineIfaceMethod reports whether fn is the read or commit method of
// the engine interface itself (a dynamic dispatch site).
func (tc *taxonomyChecker) isEngineIfaceMethod(fn *types.Func) bool {
	if fn.Name() != "read" && fn.Name() != "commit" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
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
