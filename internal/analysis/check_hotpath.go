package analysis

import (
	"go/ast"
	"go/types"
)

// The hot-path hygiene check guards the paper's central claim: RInval wins
// by keeping the transaction critical path down to loads, stores, and
// cache-local spins. A read or commit fast path that quietly grows a
// time.Now (vdso call), an fmt call (interface boxing + reflection), a map
// allocation, or a mutex acquisition loses the constant factors the whole
// design pays for. Those regressions arrive innocently — a debug print, a
// convenient map, a "just this once" lock — and survive review because they
// are syntactically unremarkable.
//
// Functions opt in with a `//stm:hotpath` directive in their doc comment.
// The check is lexical (the annotated function's own body, including its
// function literals): it does not chase calls, so helpers like writeSet.put
// — whose amortized map build is a deliberate design decision — stay
// un-annotated, while the annotated frontier (engine read/commit, the
// invalidation scans, the commit-server epoch loop) is kept clean. Clock
// reads behind a config gate go through a helper or a clock variable (core
// calls obs.Now), which the check deliberately does not resolve: an
// indirect, gated clock is the sanctioned pattern.
//
// Banned inside an annotated function:
//
//   - time.Now / time.Since (direct calls),
//   - any call into package fmt,
//   - map allocation: make(map...), map literals, or new(map...),
//   - sync.Mutex / sync.RWMutex acquisition or release.
func init() {
	RegisterCheck(&Check{
		Name: "hot-path",
		Doc:  "//stm:hotpath functions must avoid time.Now, fmt, map allocation, and mutexes",
		Run:  runHotPath,
	})
}

func runHotPath(m *Module, report ReportFunc) {
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !funcDirective(fd, "hotpath") {
					continue
				}
				checkHotBody(p, fd, report)
			}
		}
	}
}

func checkHotBody(p *Package, fd *ast.FuncDecl, report ReportFunc) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, n, name, report)
		case *ast.CompositeLit:
			if isMapType(p.Info.TypeOf(n)) {
				report(n.Pos(), "map literal allocated in hot path %s", name)
			}
		}
		return true
	})
}

func checkHotCall(p *Package, call *ast.CallExpr, name string, report ReportFunc) {
	// Builtin allocation of maps: make(map...) / new(map...).
	if id, ok := unwrap(call.Fun).(*ast.Ident); ok {
		if b, ok := p.Info.ObjectOf(id).(*types.Builtin); ok {
			if (b.Name() == "make" || b.Name() == "new") && len(call.Args) > 0 &&
				isMapType(p.Info.TypeOf(call.Args[0])) {
				report(call.Pos(), "map allocated with %s in hot path %s", b.Name(), name)
			}
			return
		}
	}
	fn := calleeFunc(p.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return // function-typed variables (e.g. the gated clock) are sanctioned
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" {
			report(call.Pos(), "time.%s in hot path %s; route clock reads through a config-gated clock variable", fn.Name(), name)
		}
	case "fmt":
		report(call.Pos(), "fmt.%s in hot path %s; formatting allocates and boxes", fn.Name(), name)
	case "sync":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return
		}
		recv := namedOrigin(sig.Recv().Type())
		if recv == nil {
			if ptr, ok := sig.Recv().Type().Underlying().(*types.Pointer); ok {
				recv = namedOrigin(ptr.Elem())
			}
		}
		if recv == nil {
			return
		}
		switch recv.Obj().Name() {
		case "Mutex", "RWMutex":
			switch fn.Name() {
			case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
				report(call.Pos(), "%s.%s in hot path %s; the fast paths must stay lock-free", recv.Obj().Name(), fn.Name(), name)
			}
		}
	}
}

// isMapType reports whether t is (or its type expression denotes) a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
