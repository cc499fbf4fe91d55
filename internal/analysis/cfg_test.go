package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses a single function declaration from src (a complete file
// body without the package clause) and returns its CFG.
func parseFunc(t *testing.T, src string) (*CFG, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_test.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return BuildCFG(fd), fd
		}
	}
	t.Fatal("no function in source")
	return nil, nil
}

// pathExists reports whether to is reachable from from.
func pathExists(from, to *Block) bool {
	seen := make(map[*Block]bool)
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// countNodes totals the leaf nodes over the reachable blocks.
func countNodes(g *CFG) int {
	n := 0
	for _, b := range g.Reachable() {
		n += len(b.Nodes)
	}
	return n
}

func TestCFGStraightLine(t *testing.T) {
	g, _ := parseFunc(t, `func f() { a := 1; b := 2; _ = a; _ = b }`)
	if len(g.Reachable()) != 2 { // entry + exit
		t.Fatalf("straight-line function should be entry+exit, got %s", g)
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("entry must fall through to exit: %s", g)
	}
	if countNodes(g) != 4 {
		t.Fatalf("want 4 leaf nodes, got %d (%s)", countNodes(g), g)
	}
}

func TestCFGBranch(t *testing.T) {
	g, _ := parseFunc(t, `func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`)
	// entry(cond) -> then -> join, entry -> else -> join, join(return) -> exit
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if head should have two successors, got %s", g)
	}
	join := g.Entry.Succs[0].Succs[0]
	if g.Entry.Succs[1].Succs[0] != join {
		t.Fatalf("both arms must meet at one join: %s", g)
	}
	if !pathExists(g.Entry, g.Exit) {
		t.Fatalf("exit unreachable: %s", g)
	}
}

func TestCFGBranchWithoutElse(t *testing.T) {
	g, _ := parseFunc(t, `func f(c bool) {
	if c {
		println(1)
	}
	println(2)
}`)
	// The head must have an edge around the then-arm.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if-without-else head needs then+join successors: %s", g)
	}
}

// TestCFGIfCondEdges: the block ending in an if condition names that
// condition and its then-successor, so an edge-sensitive flow can tell the
// true edge from the false one; Forward hands both to Flow.Edge.
func TestCFGIfCondEdges(t *testing.T) {
	g, _ := parseFunc(t, `func f(c bool) {
	if c {
		println(1)
	}
	println(2)
}`)
	head := g.Entry
	if head.Cond == nil || head.Cond != head.Nodes[len(head.Nodes)-1] {
		t.Fatalf("if head must record its condition as Cond: %s", g)
	}
	if head.Then != head.Succs[0] || len(head.Then.Nodes) != 1 {
		t.Fatalf("Then must be the then-arm block: %s", g)
	}
	for _, b := range g.Blocks[1:] {
		if b.Cond != nil || b.Then != nil {
			t.Fatalf("block %d is not an if head but has Cond/Then", b.Index)
		}
	}
	// A flow whose fact is "took a true edge": only the then-arm sees it
	// before the join merges it away (merge = AND).
	in := Forward(g, Flow{
		Entry:    false,
		Transfer: func(f Fact, _ ast.Node) Fact { return f },
		Merge:    func(a, b Fact) Fact { return a.(bool) && b.(bool) },
		Equal:    func(a, b Fact) bool { return a == b },
		Edge: func(f Fact, from, to *Block) Fact {
			return f.(bool) || (from.Cond != nil && to == from.Then)
		},
	})
	if in[head.Then] != true {
		t.Fatal("then-arm did not receive the true-edge fact")
	}
	if join := head.Succs[1]; in[join] != false {
		t.Fatal("join reached over the false edge must not carry the true-edge fact")
	}
}

func TestCFGEarlyReturn(t *testing.T) {
	g, fd := parseFunc(t, `func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`)
	_ = fd
	// Both returns edge directly to exit; nothing follows the then-return.
	returns := 0
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
				if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
					t.Fatalf("return block must edge only to exit: %s", g)
				}
			}
		}
	}
	if returns != 2 {
		t.Fatalf("want 2 reachable returns, got %d (%s)", returns, g)
	}
}

func TestCFGDeadCodeAfterReturn(t *testing.T) {
	g, _ := parseFunc(t, `func f() int {
	return 1
	println("dead")
}`)
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "println" {
						t.Fatalf("statement after return must be unreachable: %s", g)
					}
				}
			}
		}
	}
}

func TestCFGLoop(t *testing.T) {
	g, _ := parseFunc(t, `func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
	}
	return s
}`)
	// There must be a back edge: some reachable block reaches a block that
	// also reaches it.
	backEdge := false
	for _, b := range g.Reachable() {
		for _, s := range b.Succs {
			if s != b && pathExists(s, b) {
				backEdge = true
			}
		}
	}
	if !backEdge {
		t.Fatalf("loop must produce a back edge: %s", g)
	}
	if !pathExists(g.Entry, g.Exit) {
		t.Fatalf("loop exit path missing: %s", g)
	}
}

func TestCFGInfiniteLoopNoExit(t *testing.T) {
	g, _ := parseFunc(t, `func f() {
	for {
		println(1)
	}
}`)
	if pathExists(g.Entry, g.Exit) {
		t.Fatalf("break-less for{} must not reach exit: %s", g)
	}
}

func TestCFGLoopBreakContinue(t *testing.T) {
	g, _ := parseFunc(t, `func f(n int) {
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		if i == 5 {
			break
		}
		println(i)
	}
	println("after")
}`)
	if !pathExists(g.Entry, g.Exit) {
		t.Fatalf("break must open a path to exit: %s", g)
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	g, _ := parseFunc(t, `func f(n int) {
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i*j > 10 {
				break outer
			}
		}
	}
	println("done")
}`)
	if !pathExists(g.Entry, g.Exit) {
		t.Fatalf("labeled break must reach the code after the outer loop: %s", g)
	}
}

func TestCFGRange(t *testing.T) {
	g, _ := parseFunc(t, `func f(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}`)
	backEdge := false
	for _, b := range g.Reachable() {
		for _, s := range b.Succs {
			if s != b && pathExists(s, b) {
				backEdge = true
			}
		}
	}
	if !backEdge || !pathExists(g.Entry, g.Exit) {
		t.Fatalf("range loop needs a back edge and an exit path: %s", g)
	}
}

func TestCFGDefer(t *testing.T) {
	g, _ := parseFunc(t, `func f(c bool) {
	defer println("always")
	if c {
		defer println("sometimes")
		return
	}
	println("fallthrough")
}`)
	if len(g.Defers) != 2 {
		t.Fatalf("want both defer statements recorded in order, got %d", len(g.Defers))
	}
	// Defer statements also appear as block nodes so path-sensitive checks
	// see where they were registered.
	deferNodes := 0
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				deferNodes++
			}
		}
	}
	if deferNodes != 2 {
		t.Fatalf("want 2 reachable defer nodes, got %d (%s)", deferNodes, g)
	}
}

func TestCFGPanicEdge(t *testing.T) {
	g, _ := parseFunc(t, `func f(c bool) {
	if c {
		panic("boom")
	}
	println("alive")
}`)
	panicBlocks := 0
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok || !isPanicCall(es.X) {
				continue
			}
			panicBlocks++
			if len(b.Succs) != 1 || b.Succs[0] != g.Exit {
				t.Fatalf("panic block must edge only to exit: %s", g)
			}
		}
	}
	if panicBlocks != 1 {
		t.Fatalf("want 1 panic block, got %d (%s)", panicBlocks, g)
	}
}

func TestCFGSwitch(t *testing.T) {
	g, _ := parseFunc(t, `func f(x int) int {
	switch x {
	case 1:
		return 10
	case 2:
		return 20
	default:
		return 30
	}
}`)
	// All three clauses return; with a default, the header cannot skip to the
	// join, so the only paths to exit run through returns.
	if !pathExists(g.Entry, g.Exit) {
		t.Fatalf("switch returns must reach exit: %s", g)
	}
	if len(g.Entry.Succs) != 3 {
		t.Fatalf("switch head must fan out to each clause: %s", g)
	}
}

func TestCFGSwitchNoDefault(t *testing.T) {
	g, _ := parseFunc(t, `func f(x int) {
	switch x {
	case 1:
		println(1)
	}
	println("after")
}`)
	// Without a default, the header must have a bypass edge to the join.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("default-less switch head must also edge to the join: %s", g)
	}
}

func TestCFGSelect(t *testing.T) {
	g, _ := parseFunc(t, `func f(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case <-b:
		return 0
	}
}`)
	found := false
	for _, b := range g.Reachable() {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.SelectStmt); ok {
				found = true
				if len(b.Succs) != 2 {
					t.Fatalf("select head must fan out per clause: %s", g)
				}
			}
		}
	}
	if !found {
		t.Fatalf("select statement must appear as an opaque node: %s", g)
	}
}

func TestCFGGoto(t *testing.T) {
	g, _ := parseFunc(t, `func f(n int) {
	i := 0
loop:
	if i < n {
		i++
		goto loop
	}
	println("done")
}`)
	backEdge := false
	for _, b := range g.Reachable() {
		for _, s := range b.Succs {
			if s != b && pathExists(s, b) {
				backEdge = true
			}
		}
	}
	if !backEdge || !pathExists(g.Entry, g.Exit) {
		t.Fatalf("goto loop needs a back edge and an exit path: %s", g)
	}
}

func TestCFGFuncLitNotInlined(t *testing.T) {
	g, _ := parseFunc(t, `func f() {
	g := func() { panic("inner") }
	g()
}`)
	// The literal's panic must not terminate the outer function's block.
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatalf("function literal body must stay opaque to the outer CFG: %s", g)
	}
}

func TestCFGSelectHasDefault(t *testing.T) {
	_, fd := parseFunc(t, `func f(a chan int) {
	select {
	case <-a:
	default:
	}
}`)
	var sel *ast.SelectStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			sel = s
		}
		return true
	})
	if sel == nil || !SelectHasDefault(sel) {
		t.Fatal("default clause not detected")
	}
}
