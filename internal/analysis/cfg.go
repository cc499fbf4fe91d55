package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file implements the intraprocedural control-flow graph the dataflow
// checks (lock-order, atomic-publish, taxonomy-path) run over. The builder is
// deliberately self-contained (go/ast only, no x/tools): it decomposes one
// function body into basic blocks connected by the edges Go's statement forms
// induce — branches, loops (including range), switch/type-switch/select,
// labeled break/continue/goto, early returns, and panic exits — while
// recording defer statements so exit-path analyses can replay the deferred
// actions.
//
// Representation choices, which every consumer relies on:
//
//   - Block.Nodes holds *leaf* AST nodes only: simple statements plus the
//     header parts of structured statements (an if condition, a for post
//     statement, a range operand). Nested bodies are never reachable by
//     inspecting a block's nodes, so a transfer function may ast.Inspect a
//     node freely — the only sub-scopes it can encounter are function
//     literals, which have their own CFGs and must be skipped explicitly
//     (the established convention in this package).
//   - A *ast.SelectStmt appears as an opaque node in the block that reaches
//     it (so path-sensitive checks can see that a select happens there);
//     each communication clause additionally contributes its comm statement
//     at the head of its own block.
//   - Return statements and calls to the panic builtin terminate their
//     block with an edge to the synthetic Exit block. Both normal and
//     panicking exits therefore converge on Exit; checks that care about
//     which kind of exit they are looking at test the node itself.
//   - Unreachable code (statements after a return, a break-less `for {}`
//     tail) lands in blocks that are not reachable from Entry; the fixpoint
//     solver simply never visits them.
type CFG struct {
	// Name labels the function for diagnostics (best effort).
	Name string
	// Blocks lists every block, Entry first. Order is construction order and
	// has no semantic meaning beyond determinism.
	Blocks []*Block
	// Entry is the function's entry block.
	Entry *Block
	// Exit is the synthetic exit block every return, panic, and fall-off-end
	// path converges on. It holds no nodes.
	Exit *Block
	// Defers lists every defer statement in the function, in source order.
	// Exit-path analyses replay them in reverse (LIFO) order; conditional
	// defers are replayed unconditionally, a deliberate over-approximation
	// (see DESIGN.md §13).
	Defers []*ast.DeferStmt
}

// Block is one basic block: a maximal run of leaf nodes with single-entry
// control flow, plus its successor edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	// Cond and Then are set on a block that ends in an if condition: Cond is
	// that condition (also the block's last node) and Then the successor
	// taken when it holds; every other successor is a false edge. Checks
	// whose facts depend on a branch outcome (a try-lock) read them through
	// Flow.Edge.
	Cond ast.Expr
	Then *Block
}

// addSucc links b -> s, ignoring duplicates.
func (b *Block) addSucc(s *Block) {
	for _, old := range b.Succs {
		if old == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
}

// Reachable returns the blocks reachable from Entry in a deterministic
// (index) order.
func (g *CFG) Reachable() []*Block {
	seen := make(map[*Block]bool)
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	var out []*Block
	for _, b := range g.Blocks {
		if seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// String renders the graph compactly for tests and debugging:
// "0[2 nodes] -> 1,2; 1[1 nodes] -> 3; ...".
func (g *CFG) String() string {
	var sb strings.Builder
	for i, b := range g.Blocks {
		if i > 0 {
			sb.WriteString("; ")
		}
		var succs []int
		for _, s := range b.Succs {
			succs = append(succs, s.Index)
		}
		sort.Ints(succs)
		fmt.Fprintf(&sb, "%d[%d]->%v", b.Index, len(b.Nodes), succs)
	}
	return sb.String()
}

// BuildCFG constructs the control-flow graph of fd's body. fd must have a
// body. The builder needs no type information: the panic builtin is matched
// by name (shadowing `panic` with a local function would confuse it — a
// documented non-goal).
func BuildCFG(fd *ast.FuncDecl) *CFG {
	return buildCFG(funcName(fd), fd.Body)
}

// BuildLitCFG constructs the graph of a function literal's body.
func BuildLitCFG(lit *ast.FuncLit) *CFG {
	return buildCFG("func literal", lit.Body)
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		return recvName(fd) + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func buildCFG(name string, body *ast.BlockStmt) *CFG {
	g := &CFG{Name: name}
	b := &cfgBuilder{g: g, labels: make(map[string]*labelInfo)}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock() // index 1, by convention
	b.cur = g.Entry
	b.stmtList(body.List)
	// Fall off the end of the body: an implicit return.
	if b.cur != nil {
		b.cur.addSucc(g.Exit)
	}
	return g
}

// loopFrame tracks the jump targets of the innermost enclosing breakable /
// continuable construct.
type loopFrame struct {
	label      string // "" for unlabeled constructs
	breakTo    *Block
	continueTo *Block // nil for switch/select (continue skips them)
}

// labelInfo resolves a goto label: the block the label names, created on
// first reference (definition or goto, whichever parses first in our walk).
type labelInfo struct {
	block *Block
}

type cfgBuilder struct {
	g      *CFG
	cur    *Block // nil while the walker is in dead code
	loops  []loopFrame
	labels map[string]*labelInfo
	// pendingLabel carries a just-seen label so the following For/Range/
	// Switch/Select registers it as its own.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// startBlock makes blk the current block; a nil cur (dead code) stays dead
// only if blk has no other predecessors — the builder always switches, and
// reachability filtering handles dead blocks.
func (b *cfgBuilder) startBlock(blk *Block) { b.cur = blk }

// emit appends a leaf node to the current block, materializing a dead block
// for unreachable code so later labels can still attach.
func (b *cfgBuilder) emit(n ast.Node) {
	if n == nil {
		return
	}
	if b.cur == nil {
		b.cur = b.newBlock() // unreachable; never linked from Entry
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target and enters dead code.
func (b *cfgBuilder) jump(target *Block) {
	if b.cur != nil {
		b.cur.addSucc(target)
	}
	b.cur = nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{block: b.newBlock()}
		b.labels[name] = li
	}
	return li.block
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.EmptyStmt:
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		if b.cur != nil {
			b.cur.addSucc(lb)
		}
		b.startBlock(lb)
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""
	case *ast.ReturnStmt:
		b.emit(s)
		b.jump(b.g.Exit)
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.emit(s.Init)
		b.emit(s.Tag)
		b.switchBody(s.Body)
	case *ast.TypeSwitchStmt:
		b.emit(s.Init)
		b.emit(s.Assign)
		b.switchBody(s.Body)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.DeferStmt:
		b.g.Defers = append(b.g.Defers, s)
		b.emit(s)
	case *ast.ExprStmt:
		b.emit(s)
		if isPanicCall(s.X) {
			b.jump(b.g.Exit)
		}
	default:
		// Assign, IncDec, Decl, Send, Go, ... — leaf statements.
		b.emit(s)
	}
}

// branch handles break/continue/goto/fallthrough. Fallthrough is resolved by
// switchBody (it needs the next clause), so it is a no-op here.
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok {
	case token.GOTO:
		b.jump(b.labelBlock(s.Label.Name))
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if s.Label == nil || fr.label == s.Label.Name {
				b.jump(fr.breakTo)
				return
			}
		}
		b.cur = nil // malformed; treat as dead
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			fr := b.loops[i]
			if fr.continueTo == nil {
				continue // switch/select frames are transparent to continue
			}
			if s.Label == nil || fr.label == s.Label.Name {
				b.jump(fr.continueTo)
				return
			}
		}
		b.cur = nil
	case token.FALLTHROUGH:
		// handled structurally in switchBody
	}
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.emit(s.Init)
	b.emit(s.Cond)
	head := b.cur
	join := b.newBlock()

	thenB := b.newBlock()
	if head != nil {
		head.addSucc(thenB)
		head.Cond, head.Then = s.Cond, thenB
	}
	b.startBlock(thenB)
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.cur.addSucc(join)
	}

	if s.Else != nil {
		elseB := b.newBlock()
		if head != nil {
			head.addSucc(elseB)
		}
		b.startBlock(elseB)
		b.stmt(s.Else)
		if b.cur != nil {
			b.cur.addSucc(join)
		}
	} else if head != nil {
		head.addSucc(join)
	}
	b.startBlock(join)
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	b.emit(s.Init)

	head := b.newBlock() // evaluates the condition each iteration
	if b.cur != nil {
		b.cur.addSucc(head)
	}
	b.startBlock(head)
	b.emit(s.Cond)

	exit := b.newBlock()
	post := b.newBlock() // continue target; holds the post statement
	if s.Cond != nil {
		head.addSucc(exit) // condition may fail
	}

	body := b.newBlock()
	head.addSucc(body)
	b.loops = append(b.loops, loopFrame{label: label, breakTo: exit, continueTo: post})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.cur.addSucc(post)
	}
	b.loops = b.loops[:len(b.loops)-1]

	b.startBlock(post)
	b.emit(s.Post)
	post.addSucc(head) // back edge
	b.startBlock(exit)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""

	head := b.newBlock()
	if b.cur != nil {
		b.cur.addSucc(head)
	}
	b.startBlock(head)
	b.emit(s.X) // the ranged operand is evaluated at the head

	exit := b.newBlock()
	head.addSucc(exit) // the range may be empty / exhausted

	body := b.newBlock()
	head.addSucc(body)
	b.loops = append(b.loops, loopFrame{label: label, breakTo: exit, continueTo: head})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.cur.addSucc(head) // back edge
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.startBlock(exit)
}

// switchBody lowers the clause list of a switch or type switch: one block per
// clause, all fed from the current (header) block, with fallthrough edges to
// the next clause and a default-less switch flowing straight to the join.
func (b *cfgBuilder) switchBody(body *ast.BlockStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	head := b.cur
	join := b.newBlock()

	var clauses []*ast.CaseClause
	for _, cs := range body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	for i := range clauses {
		blocks[i] = b.newBlock()
		if head != nil {
			head.addSucc(blocks[i])
		}
	}
	hasDefault := false
	b.loops = append(b.loops, loopFrame{label: label, breakTo: join})
	for i, cc := range clauses {
		if cc.List == nil {
			hasDefault = true
		}
		b.startBlock(blocks[i])
		for _, e := range cc.List {
			b.emit(e) // case expressions are evaluated in the clause block
		}
		fallsThrough := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
				continue
			}
			b.stmt(st)
		}
		if fallsThrough && i+1 < len(blocks) {
			if b.cur != nil {
				b.cur.addSucc(blocks[i+1])
				b.cur = nil
			}
		}
		if b.cur != nil {
			b.cur.addSucc(join)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	if head != nil && !hasDefault {
		head.addSucc(join) // no clause may match
	}
	b.startBlock(join)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.pendingLabel
	b.pendingLabel = ""
	// The select itself is visible as an opaque node where it blocks.
	b.emit(s)
	head := b.cur
	join := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, breakTo: join})
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		if head != nil {
			head.addSucc(blk)
		}
		b.startBlock(blk)
		b.emit(cc.Comm)
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.cur.addSucc(join)
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	// A select with no clauses (`select {}`) blocks forever: join then has no
	// incoming edge and everything after stays unreachable, which is exact.
	b.startBlock(join)
}

// isPanicCall matches a direct call to the panic builtin (by name).
func isPanicCall(e ast.Expr) bool {
	call, ok := unwrap(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unwrap(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// SelectHasDefault reports whether a select statement has a default clause
// (making it non-blocking).
func SelectHasDefault(s *ast.SelectStmt) bool {
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
