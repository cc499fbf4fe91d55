package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"
)

// The lock-order check machine-checks the discipline PR 6's cross-shard
// handshake rests on (DESIGN.md §11): commit-stream locks are acquired in
// ascending shard-index order, released in descending order, released on
// every path out of the function — early returns, panics, and fall-through
// included — and no blocking operation runs while one is held. The
// deadlock-freedom argument is a total order over lock acquisition; a
// refactor that reorders two lockStream calls, leaks a lock on an error
// return, or parks on a channel inside the critical section breaks it in a
// way no unit test reliably reproduces (the deadlock needs the adversarial
// schedule).
//
// The analysis is a forward dataflow pass over each function's CFG. The
// abstract state is the ordered sequence of held stream-lock tokens plus the
// pending deferred releases; every reachable exit (return, panic, falling
// off the end) replays the deferred releases and demands an empty held set.
//
// What is a lock? Any call to a function or method named lockStream /
// unlockStream, or lockTimestamp / unlockTimestamp — a stream's timestamp
// raised odd, its lock where clients commit themselves (the repo has exactly
// one pair of each; fixtures define their own). Both pairs lock the stream
// their index names and share one token space and every rule below.
// Tokens are symbolic:
//
//   - a constant argument yields a ranked token, so ascending/descending
//     order is checked exactly between constants;
//   - the sanctioned mask-iteration idiom
//     `for m := mask; m != 0; m &= m - 1 { ..lockStream(bits.TrailingZeros64(m)).. }`
//     (the index may be a variable the loop body defines that way) is
//     recognized structurally as an ascending batch acquisition (clearing
//     the lowest set bit strictly ascends); any other loop around lockStream
//     is reported, because its order cannot be proved. A release in a loop
//     must likewise be the highest-set-bit walk (its index taken from
//     bits.Len64 or bits.LeadingZeros64 of the mask), which strictly
//     descends; any other release loop is reported;
//   - any other argument yields an opaque token keyed by its expression
//     text; opaque tokens are exempt from order comparison (soundness
//     boundary: the checker never guesses an order it cannot prove).
//
// tryLockStream is the non-waiting acquisition (a waiting client taking a
// free stream to run the epoch itself, DESIGN.md §16). Whether it acquired is
// its result, so the lock is held on exactly one side of the branch that
// tests it: the then-edge of `if [c && ] tryLockStream(i) { ... }`, or every
// other edge of the guard `if !tryLockStream(i) { return }`. From there it is
// an ordinary held token — it must be released on every path out and nothing
// may block under it. A try-lock never waits, so it cannot close a deadlock
// cycle and is exempt from the ascending-order and loop rules. Any other use
// of the result (stored, passed on, tested inside any other expression) is
// reported: the checker could not tell which paths hold the lock.
//
// tryLockPartition / unlockPartition are the same idiom one tier down (the
// epoch driver or an invalidation-server taking a free invalidation partition
// of a stream to run its scan, DESIGN.md §16 "One tier down"): the result must
// be tested by an if, the lock is held on the side where the try succeeded,
// must be released on every path out, and nothing may block under it. Its
// token is keyed by both arguments (stream, partition) and never ranked. One
// edge is added: no stream lock — lockStream, tryLockStream or a mask helper —
// may be acquired while a partition lock is held. Stream, then partition is
// the only legal nesting, which is what lets an epoch driver wait for a
// partition's holder under its stream lock without closing a cycle.
//
// The mask helpers are how the engine takes several streams (lockStreams /
// unlockStreams, Tx.lockTouched / System.releaseTouched in core). A module
// function whose only lock effect is the ascending-mask idiom is summarized
// as a bulk-acquire helper: calling it holds one batch token for its mask,
// and because nothing orders a batch against another lock, any waiting
// acquisition before or after it on the same path is reported. If it returns
// a bool it is a bulk try-acquire helper (lockTouched: false is an abort with
// nothing held): its result must be tested by an if like tryLockStream's, and
// the batch is held on the side where it succeeded — but it may wait, so the
// batch rule still applies there. A module function whose body releases locks
// in the descending walk and acquires none is summarized as a bulk-release
// helper: calling it clears the held set. No helper is analyzed as a client. All other calls are assumed lock-neutral — the check
// verifies each caller of a primitive or helper is self-balanced rather than
// tracking lock ownership across call boundaries (DESIGN.md §13 spells out
// the boundary).
//
// Blocking operations while a stream lock is held: channel send/receive,
// a select without a default clause, time.Sleep, sync.Mutex/RWMutex Lock
// and RLock, sync.WaitGroup.Wait, sync.Cond.Wait, and any direct call into
// packages os, net, io, or bufio, plus fmt's writer/stdout printers.
// Spinning (internal/spin) is the sanctioned wait inside the critical
// section and is deliberately absent from the list.
func init() {
	RegisterCheck(&Check{
		Name: "lock-order",
		Doc:  "stream and partition locks: ascending acquire, descending release, stream before partition, released on every exit path, no blocking ops while held",
		Run:  runLockOrder,
	})
}

const (
	lockFnName        = "lockStream"
	lockTSFnName      = "lockTimestamp"
	tryLockFnName     = "tryLockStream"
	unlockFnName      = "unlockStream"
	unlockTSFnName    = "unlockTimestamp"
	tryLockPartFnName = "tryLockPartition"
	unlockPartFnName  = "unlockPartition"
	releaseAllKey     = "*"
	partTokenPrefix   = "part@"
)

// isTryLockName / isUnlockName cover both tiers: the stream lock and the
// partition lock share the try-lock and release rules. isLockFnName is any
// lock primitive of either tier.
func isTryLockName(name string) bool { return name == tryLockFnName || name == tryLockPartFnName }
func isUnlockName(name string) bool {
	return name == unlockFnName || name == unlockTSFnName || name == unlockPartFnName
}
func isLockFnName(name string) bool {
	return name == lockFnName || name == lockTSFnName || isTryLockName(name) || isUnlockName(name)
}

// lockFact is the dataflow state: held lock tokens in acquisition order and
// pending deferred releases in registration order, each encoded as a
// "|"-separated key string so facts are immutable and comparable.
type lockFact struct {
	held   string
	defers string
}

func splitKeys(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "|")
}

func joinKeys(ks []string) string { return strings.Join(ks, "|") }

// rankOf decodes a token's shard rank; ok is false for opaque/batch tokens.
func rankOf(key string) (int, bool) {
	if r, found := strings.CutPrefix(key, "#"); found {
		n, err := strconv.Atoi(r)
		return n, err == nil
	}
	return 0, false
}

func runLockOrder(m *Module, report ReportFunc) {
	lo := &lockOrderChecker{m: m, report: report, reported: make(map[string]bool)}
	lo.summarize()
	for _, p := range m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lo.checkFunc(p, fd)
			}
		}
	}
}

type lockOrderChecker struct {
	m      *Module
	report ReportFunc
	// bulkAcquire marks module functions summarized as "acquires its mask
	// argument's streams ascending" (lockStream only inside the sanctioned
	// mask loop, no releases), bulkTry those of them that return a bool (held
	// only where it is true); bulkRelease those summarized as "releases every
	// held lock" (unlockStream inside the descending walk, no acquisitions).
	bulkAcquire map[*types.Func]bool
	bulkTry     map[*types.Func]bool
	bulkRelease map[*types.Func]bool
	// reported dedupes diagnostics across block replays.
	reported map[string]bool
}

// summarize classifies every declared function once: is it a bulk-acquire or
// a bulk-release helper?
func (lo *lockOrderChecker) summarize() {
	lo.bulkAcquire = make(map[*types.Func]bool)
	lo.bulkTry = make(map[*types.Func]bool)
	lo.bulkRelease = make(map[*types.Func]bool)
	for _, p := range lo.m.Pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || isLockPrimitive(fd) {
					continue
				}
				fn, _ := p.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				locks, unordered, unlocks, unlocksInLoop := false, false, false, false
				inspectLoops(fd.Body, func(call *ast.CallExpr, loop ast.Stmt) {
					switch calleeName(p.Info, call) {
					case lockFnName, lockTSFnName:
						locks = true
						if l, ok := loop.(*ast.ForStmt); !ok || !isAscendingMaskLoop(p.Info, l, call) {
							unordered = true
						}
					case tryLockFnName, tryLockPartFnName:
						locks, unordered = true, true
					case unlockFnName, unlockTSFnName, unlockPartFnName:
						unlocks = true
						if loop != nil {
							unlocksInLoop = true
							if !isDescendingMaskWalk(p.Info, loop, call) {
								unordered = true
							}
						}
					}
				})
				if locks && !unordered && !unlocks {
					lo.bulkAcquire[fn] = true
					if res := fn.Type().(*types.Signature).Results(); res.Len() == 1 &&
						types.Identical(res.At(0).Type(), types.Typ[types.Bool]) {
						lo.bulkTry[fn] = true
					}
				}
				if unlocksInLoop && !locks && !unordered {
					lo.bulkRelease[fn] = true
				}
			}
		}
	}
}

// checkFunc analyzes one client function (one that directly calls a lock
// primitive or a bulk helper).
func (lo *lockOrderChecker) checkFunc(p *Package, fd *ast.FuncDecl) {
	if isLockPrimitive(fd) {
		return // the spin-CAS implementation of the primitive itself
	}
	if fn, _ := p.Info.Defs[fd.Name].(*types.Func); fn != nil && (lo.bulkAcquire[fn] || lo.bulkRelease[fn]) {
		return // acquires or releases on behalf of its caller by design
	}
	usesPrimitive := false
	loopOf := make(map[*ast.CallExpr]ast.Stmt)
	inspectLoops(fd.Body, func(call *ast.CallExpr, loop ast.Stmt) {
		if isLockFnName(calleeName(p.Info, call)) {
			usesPrimitive = true
			loopOf[call] = loop
		} else if fn := calleeFunc(p.Info, call); fn != nil && (lo.bulkAcquire[fn] || lo.bulkRelease[fn]) {
			usesPrimitive = true
		}
	})
	if !usesPrimitive {
		return
	}

	g := BuildCFG(fd)
	commStmts := make(map[ast.Stmt]bool)
	branchTries := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			for _, cs := range n.Body.List {
				if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
					commStmts[cc.Comm] = true
				}
			}
		case *ast.IfStmt:
			if call, _ := lo.tryLockCond(p.Info, n.Cond); call != nil {
				branchTries[call] = true
			}
		}
		return true
	})
	fc := &funcLockChecker{lo: lo, p: p, fd: fd, loopOf: loopOf, commStmts: commStmts, branchTries: branchTries}
	flow := Flow{
		Entry:    lockFact{},
		Transfer: func(f Fact, n ast.Node) Fact { return fc.transfer(f.(lockFact), n, nil) },
		Merge: func(a, b Fact) Fact {
			return mergeLockFacts(a.(lockFact), b.(lockFact))
		},
		Equal: func(a, b Fact) bool { return a == b },
		Edge:  func(f Fact, from, to *Block) Fact { return fc.edge(f.(lockFact), from, to, nil) },
	}
	in := Forward(g, flow)

	// Replay every reachable block with its converged entry state, reporting
	// at the exact node positions.
	for _, b := range g.Reachable() {
		entry, ok := in[b]
		if !ok {
			continue
		}
		f := entry.(lockFact)
		exitsToExit := false
		for _, s := range b.Succs {
			if s == g.Exit {
				exitsToExit = true
			}
		}
		explicitExit := false
		for _, n := range b.Nodes {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				explicitExit = true
				fc.checkExit(f, n.Pos(), "return")
			case *ast.ExprStmt:
				if isPanicCall(n.X) {
					explicitExit = true
					fc.checkExit(f, n.Pos(), "panic")
				}
			}
			f = fc.transfer(f, n, lo.report).(lockFact)
		}
		if exitsToExit && !explicitExit {
			// Falling off the end of the function.
			fc.checkExit(f, fd.Body.Rbrace, "function end")
		}
		for _, s := range b.Succs {
			fc.edge(f, b, s, lo.report) // a try-lock acquiring what is already held
		}
	}
}

// funcLockChecker carries the per-function context of one analysis.
type funcLockChecker struct {
	lo        *lockOrderChecker
	p         *Package
	fd        *ast.FuncDecl
	loopOf    map[*ast.CallExpr]ast.Stmt
	commStmts map[ast.Stmt]bool // select comm statements (skip blocking check)
	// branchTries holds the try-lock calls (either tier) an if condition tests
	// directly; edge applies their acquisition on the side that holds it.
	branchTries map[*ast.CallExpr]bool
}

// reportOnce funnels every diagnostic through the dedupe map (the fixpoint
// and replay passes may both traverse a node; only replay reports).
func (fc *funcLockChecker) reportOnce(report ReportFunc, pos token.Pos, format string, args ...any) {
	if report == nil {
		return // fixpoint pass: state only, no diagnostics
	}
	key := fmt.Sprintf("%d:%s", pos, fmt.Sprintf(format, args...))
	if fc.lo.reported[key] {
		return
	}
	fc.lo.reported[key] = true
	report(pos, format, args...)
}

// transfer applies one leaf node's lock effects. With report == nil it only
// computes the state (fixpoint pass); the replay pass passes the real
// reporter.
func (fc *funcLockChecker) transfer(f lockFact, n ast.Node, report ReportFunc) Fact {
	// Deferred releases register without executing.
	if ds, ok := n.(*ast.DeferStmt); ok {
		if key, kind := fc.releaseKeyOf(ds.Call); kind != "" {
			defers := splitKeys(f.defers)
			f.defers = joinKeys(append(defers, key))
		}
		return f
	}

	held := splitKeys(f.held)

	// Blocking operations while a lock is held.
	if len(held) > 0 {
		fc.checkBlocking(n, held, report)
	}

	// Lock/unlock calls and bulk-release helper calls inside this node, in
	// source order. A SelectStmt node is opaque here: its comm statements and
	// clause bodies appear in their own blocks (CFG convention), so inspecting
	// it would apply their effects twice.
	inspectLeaf(n, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fc.lo.isTry(fc.p.Info, call) {
			if !fc.branchTries[call] {
				fc.reportOnce(report, call.Pos(),
					"%[1]s result must be tested directly by an if condition (if %[1]s(..) { ... } or if !%[1]s(..) { return }); otherwise the checker cannot tell which paths hold the lock", calleeName(fc.p.Info, call))
			}
			return true
		}
		switch calleeName(fc.p.Info, call) {
		case lockFnName, lockTSFnName:
			held = fc.acquire(held, call, false, report)
		case unlockFnName, unlockTSFnName, unlockPartFnName:
			held = fc.release(held, call, report)
		default:
			switch fn := calleeFunc(fc.p.Info, call); {
			case fn == nil:
			case fc.lo.bulkAcquire[fn]:
				held = fc.acquire(held, call, false, report)
			case fc.lo.bulkRelease[fn]:
				held = partTokens(held) // descending-release helper clears every stream
			}
		}
		return true
	})
	f.held = joinKeys(held)
	return f
}

// inspectLeaf inspects one CFG block leaf node under the package's CFG
// conventions: function literals are opaque (they have their own CFG), and a
// SelectStmt node is fully opaque because its comm statements and clause
// bodies are re-emitted in their own blocks.
func inspectLeaf(n ast.Node, f func(ast.Node) bool) {
	if _, ok := n.(*ast.SelectStmt); ok {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x == nil {
			return true
		}
		return f(x)
	})
}

// edge applies a branch-tested try-lock on the CFG edge where it succeeded:
// the then-edge for the positive form, every other edge for the negated
// guard.
func (fc *funcLockChecker) edge(f lockFact, from, to *Block, report ReportFunc) lockFact {
	if from.Cond == nil {
		return f
	}
	call, negated := fc.lo.tryLockCond(fc.p.Info, from.Cond)
	if call == nil || (to == from.Then) == negated {
		return f
	}
	// A bulk try-acquire helper may wait: its batch keeps the batch rule.
	try := isTryLockName(calleeName(fc.p.Info, call))
	f.held = joinKeys(fc.acquire(splitKeys(f.held), call, try, report))
	return f
}

// isTry reports whether call is a try-lock of either tier or a call to a
// bulk try-acquire helper: its result says whether it acquired.
func (lo *lockOrderChecker) isTry(info *types.Info, call *ast.CallExpr) bool {
	if isTryLockName(calleeName(info, call)) {
		return true
	}
	fn := calleeFunc(info, call)
	return fn != nil && lo.bulkTry[fn]
}

// tryLockCond recognizes an if condition that tests a try-lock call (isTry)
// directly: the call itself or a conjunct of an && chain (held when the
// condition is true), or its plain negation (held when it is false).
func (lo *lockOrderChecker) tryLockCond(info *types.Info, cond ast.Expr) (call *ast.CallExpr, negated bool) {
	switch e := unwrap(cond).(type) {
	case *ast.CallExpr:
		if lo.isTry(info, e) {
			return e, false
		}
	case *ast.UnaryExpr:
		if c, ok := unwrap(e.X).(*ast.CallExpr); ok && e.Op == token.NOT && lo.isTry(info, c) {
			return c, true
		}
	case *ast.BinaryExpr:
		if e.Op == token.LAND {
			for _, side := range []ast.Expr{e.X, e.Y} {
				if c, neg := lo.tryLockCond(info, side); c != nil && !neg {
					return c, false
				}
			}
		}
	}
	return nil, false
}

// acquire applies one lockStream call, or (try) a try-lock call of either tier
// on the edge where it succeeded. A try-lock never waits, so the loop and
// order rules — which exist to rule out a wait cycle — do not apply to it.
func (fc *funcLockChecker) acquire(held []string, call *ast.CallExpr, try bool, report ReportFunc) []string {
	key, sanctioned := fc.tokenOf(call)
	if !isPartToken(key) {
		for _, h := range held {
			if isPartToken(h) {
				fc.reportOnce(report, call.Pos(),
					"%s acquired while holding %s; stream, then partition is the only legal nesting (DESIGN.md §16)",
					describeToken(key), describeToken(h))
				break
			}
		}
	}
	if loop := fc.loopOf[call]; loop != nil && !sanctioned && !try {
		fc.reportOnce(report, call.Pos(),
			"stream lock acquired in a loop the checker cannot order; use the ascending-mask idiom (for m := mask; m != 0; m &= m - 1 { lockStream(bits.TrailingZeros64(m)) })")
		// Fall through: still track it so releases balance.
	}
	for _, h := range held {
		if h == key {
			if strings.HasPrefix(key, "loop@") {
				return held // batch re-acquisition on the back edge
			}
			fc.reportOnce(report, call.Pos(), "%s acquired twice on the same path (self-deadlock)", describeToken(key))
			return held
		}
	}
	if r, ok := rankOf(key); ok && !try {
		for _, h := range held {
			if hr, hok := rankOf(h); hok && hr >= r {
				fc.reportOnce(report, call.Pos(),
					"stream locks acquired out of order: shard %d is locked while already holding shard %d; the handshake requires ascending shard order (DESIGN.md §11)", r, hr)
			}
		}
	}
	if !try {
		// A batch holds whatever streams its mask names, so it cannot be
		// ordered against any other waiting acquisition.
		for _, h := range held {
			if isBatchToken(key) || isBatchToken(h) {
				fc.reportOnce(report, call.Pos(),
					"%s acquired while already holding %s: a mask batch cannot be ordered against another acquisition; take every stream in one ascending batch (DESIGN.md §11)",
					describeToken(key), describeToken(h))
				break
			}
		}
	}
	return append(append([]string(nil), held...), key)
}

// release applies one unlockStream, unlockTimestamp or unlockPartition call.
func (fc *funcLockChecker) release(held []string, call *ast.CallExpr, report ReportFunc) []string {
	key, _ := fc.tokenOf(call)
	if loop := fc.loopOf[call]; loop != nil && !isPartToken(key) && !slices.Contains(held, key) &&
		!isDescendingMaskWalk(fc.p.Info, loop, call) {
		fc.reportOnce(report, call.Pos(),
			"stream locks released in a loop the checker cannot order; use the descending walk (j := bits.Len64(m) - 1; m &^= 1 << uint(j); unlockStream(j))")
		return partTokens(held)
	}
	if len(held) == 0 {
		fc.reportOnce(report, call.Pos(), "%s released but no lock is held on this path", describeToken(key))
		return held
	}
	if held[len(held)-1] == key {
		return held[: len(held)-1 : len(held)-1]
	}
	for i, h := range held {
		if h == key {
			// Releasing below the top of the acquisition stack: out of
			// descending order. Exact when both ranks are known, still a
			// stack-discipline violation otherwise.
			fc.reportOnce(report, call.Pos(),
				"%s released out of order while %s is still held; release descending (reverse of acquisition)",
				describeToken(key), describeToken(held[len(held)-1]))
			return append(append([]string(nil), held[:i]...), held[i+1:]...)
		}
	}
	if fc.loopOf[call] != nil && !isPartToken(key) {
		// An inline mask-iteration release (the unlockStreamsDesc shape,
		// written inline): treat as releasing every stream this path holds.
		return partTokens(held)
	}
	fc.reportOnce(report, call.Pos(),
		"%s released but was not acquired on this path (held: %s)", describeToken(key), describeHeld(held))
	return held
}

// checkExit verifies the held set is empty at an exit point, after replaying
// the deferred releases LIFO.
func (fc *funcLockChecker) checkExit(f lockFact, pos token.Pos, kind string) {
	held := splitKeys(f.held)
	defers := splitKeys(f.defers)
	for i := len(defers) - 1; i >= 0; i-- {
		key := defers[i]
		if key == releaseAllKey {
			held = partTokens(held)
			continue
		}
		for j := len(held) - 1; j >= 0; j-- {
			if held[j] == key {
				held = append(append([]string(nil), held[:j]...), held[j+1:]...)
				break
			}
		}
	}
	if len(held) > 0 {
		fc.reportOnce(fc.lo.report, pos,
			"%s still held at %s; every path out of %s must release it (leaked lock deadlocks the next epoch)",
			describeHeld(held), kind, fc.fd.Name.Name)
	}
}

// releaseKeyOf classifies a deferred call: the key it will release ("" when
// the defer is lock-irrelevant). kind is "one" or "all".
func (fc *funcLockChecker) releaseKeyOf(call *ast.CallExpr) (key, kind string) {
	if isUnlockName(calleeName(fc.p.Info, call)) {
		k, _ := fc.tokenOf(call)
		return k, "one"
	}
	if fn := calleeFunc(fc.p.Info, call); fn != nil && fc.lo.bulkRelease[fn] {
		return releaseAllKey, "all"
	}
	return "", ""
}

// tokenOf derives the symbolic token of a lock/unlock call from its last
// argument (the shard index; methods and plain functions both put it last) —
// for a partition lock from both arguments (stream, partition), unranked.
// sanctioned reports that the call sits in a recognized ascending-mask loop.
func (fc *funcLockChecker) tokenOf(call *ast.CallExpr) (key string, sanctioned bool) {
	if len(call.Args) == 0 {
		return "opaque@" + strconv.Itoa(int(call.Pos())), false
	}
	if name := calleeName(fc.p.Info, call); name == tryLockPartFnName || name == unlockPartFnName {
		parts := make([]string, len(call.Args))
		for i, a := range call.Args {
			parts[i] = exprKey(a)
		}
		return partTokenPrefix + strings.Join(parts, ","), false
	}
	arg := unwrap(call.Args[len(call.Args)-1])
	if fn := calleeFunc(fc.p.Info, call); fn != nil && fc.lo.bulkAcquire[fn] {
		return "batch@" + exprKey(arg), true
	}
	if tv, ok := fc.p.Info.Types[arg]; ok && tv.Value != nil && tv.Value.Kind() == constant.Int {
		if v, exact := constant.Int64Val(tv.Value); exact {
			return "#" + strconv.FormatInt(v, 10), false
		}
	}
	if loop := fc.loopOf[call]; loop != nil {
		if forStmt, ok := loop.(*ast.ForStmt); ok && isAscendingMaskLoop(fc.p.Info, forStmt, call) {
			return fmt.Sprintf("loop@%d", loop.Pos()), true
		}
		return fmt.Sprintf("loop@%d", loop.Pos()), false
	}
	return exprKey(arg), false
}

// isBatchToken reports whether key stands for a whole mask of streams: the
// inline ascending-mask loop or a call to a bulk-acquire helper.
func isBatchToken(key string) bool {
	return strings.HasPrefix(key, "loop@") || strings.HasPrefix(key, "batch@")
}

// isPartToken reports whether key stands for a partition lock.
func isPartToken(key string) bool { return strings.HasPrefix(key, partTokenPrefix) }

// partTokens returns the partition locks in held: what a bulk release of
// stream locks leaves behind.
func partTokens(held []string) []string {
	var out []string
	for _, h := range held {
		if isPartToken(h) {
			out = append(out, h)
		}
	}
	return out
}

// describeToken renders a token for diagnostics.
func describeToken(key string) string {
	if p, ok := strings.CutPrefix(key, partTokenPrefix); ok {
		return fmt.Sprintf("partition lock (index %s)", p)
	}
	if r, ok := rankOf(key); ok {
		return fmt.Sprintf("stream lock for shard %d", r)
	}
	if isBatchToken(key) {
		return "stream lock batch (mask loop)"
	}
	return fmt.Sprintf("stream lock (index %s)", key)
}

func describeHeld(held []string) string {
	parts := make([]string, len(held))
	for i, h := range held {
		parts[i] = describeToken(h)
	}
	return strings.Join(parts, ", ")
}

// checkBlocking reports blocking operations inside node n while locks are
// held. Comm statements of a select clause are skipped: whether they block is
// a property of the select head, which is checked at the SelectStmt node.
func (fc *funcLockChecker) checkBlocking(n ast.Node, held []string, report ReportFunc) {
	blockedMsg := func(pos token.Pos, what string) {
		fc.reportOnce(report, pos,
			"%s while %s is held; the commit critical section must not block (spin instead)",
			what, describeHeld(held))
	}
	if sel, ok := n.(*ast.SelectStmt); ok {
		if !SelectHasDefault(sel) {
			blockedMsg(sel.Pos(), "blocking select")
		}
		return // clause bodies are separate blocks
	}
	if st, ok := n.(ast.Stmt); ok && fc.commStmts[st] {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			blockedMsg(x.Pos(), "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				blockedMsg(x.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if what := blockingCall(fc.p.Info, x); what != "" {
				blockedMsg(x.Pos(), what)
			}
		}
		return true
	})
}

// blockingCall classifies a call as blocking ("" when it is not).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "os", "net", "io", "bufio":
		return fn.Pkg().Path() + "." + fn.Name() + " (I/O)"
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") ||
			strings.HasPrefix(fn.Name(), "Scan") {
			return "fmt." + fn.Name() + " (I/O)"
		}
	case "sync":
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			return ""
		}
		recv := namedOrigin(sig.Recv().Type())
		if recv == nil {
			if ptr, ok := sig.Recv().Type().Underlying().(*types.Pointer); ok {
				recv = namedOrigin(ptr.Elem())
			}
		}
		if recv == nil {
			return ""
		}
		switch recv.Obj().Name() + "." + fn.Name() {
		case "Mutex.Lock", "RWMutex.Lock", "RWMutex.RLock", "WaitGroup.Wait", "Cond.Wait":
			return "sync." + recv.Obj().Name() + "." + fn.Name()
		}
	}
	return ""
}

// ---- shared structural helpers ----

// isLockPrimitive reports whether fd declares one of the lock primitives
// themselves.
func isLockPrimitive(fd *ast.FuncDecl) bool { return isLockFnName(fd.Name.Name) }

// calleeName resolves a call's function name, or "".
func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		return fn.Name()
	}
	return ""
}

// inspectLoops walks body invoking fn for every call expression with its
// innermost enclosing for/range statement (nil outside loops). Function
// literals are not descended into.
func inspectLoops(body *ast.BlockStmt, fn func(call *ast.CallExpr, loop ast.Stmt)) {
	var walk func(root ast.Node, loop ast.Stmt)
	walk = func(root ast.Node, loop ast.Stmt) {
		ast.Inspect(root, func(x ast.Node) bool {
			if x == nil || x == root {
				return true
			}
			switch x := x.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				walk(x, x)
				return false
			case *ast.RangeStmt:
				walk(x, x)
				return false
			case *ast.CallExpr:
				fn(x, loop)
			}
			return true
		})
	}
	walk(body, nil)
}

// isAscendingMaskLoop recognizes the sanctioned batch-acquisition idiom:
//
//	for m := <mask>; m != 0; m &= m - 1 {
//		... lockStream(bits.TrailingZeros64(m)) ...
//	}
//
// Clearing the lowest set bit each iteration and locking its index visits
// shard indices in strictly ascending order.
func isAscendingMaskLoop(info *types.Info, l *ast.ForStmt, lockCall *ast.CallExpr) bool {
	// Init: m := <expr>, single variable.
	init, ok := l.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 {
		return false
	}
	mIdent, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	mObj := info.ObjectOf(mIdent)
	// Cond: m != 0.
	cond, ok := l.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.NEQ || !isIdentFor(info, cond.X, mObj) || !isZeroLit(cond.Y) {
		return false
	}
	// Post: m &= m - 1.
	post, ok := l.Post.(*ast.AssignStmt)
	if !ok || post.Tok != token.AND_ASSIGN || len(post.Lhs) != 1 || len(post.Rhs) != 1 {
		return false
	}
	if !isIdentFor(info, post.Lhs[0], mObj) {
		return false
	}
	sub, ok := unwrap(post.Rhs[0]).(*ast.BinaryExpr)
	if !ok || sub.Op != token.SUB || !isIdentFor(info, sub.X, mObj) || !isOneLit(sub.Y) {
		return false
	}
	// Lock argument: bits.TrailingZeros64(m) (possibly through a conversion),
	// or a variable the loop body defines so.
	if len(lockCall.Args) == 0 {
		return false
	}
	arg := loopDefinition(info, l, unwrap(lockCall.Args[len(lockCall.Args)-1]))
	for {
		inner, ok := arg.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(info, inner)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/bits" &&
			strings.HasPrefix(fn.Name(), "TrailingZeros") {
			return len(inner.Args) == 1 && isIdentFor(info, inner.Args[0], mObj)
		}
		// A conversion like int(bits.TrailingZeros64(m)): peel one layer.
		if len(inner.Args) != 1 {
			return false
		}
		arg = unwrap(inner.Args[0])
	}
}

// isDescendingMaskWalk recognizes the sanctioned release loop: the released
// index (the call's last argument, or the variable the loop body defines for
// it) is computed by math/bits' Len or LeadingZeros — the mask's highest set
// bit, which the loop then clears, so indices strictly descend:
//
//	for m := mask; m != 0; {
//		j := bits.Len64(m) - 1
//		m &^= 1 << uint(j)
//		unlockStream(j)
//	}
func isDescendingMaskWalk(info *types.Info, loop ast.Stmt, unlockCall *ast.CallExpr) bool {
	if len(unlockCall.Args) == 0 {
		return false
	}
	arg := loopDefinition(info, loop, unwrap(unlockCall.Args[len(unlockCall.Args)-1]))
	found := false
	ast.Inspect(arg, func(x ast.Node) bool {
		if c, ok := x.(*ast.CallExpr); ok {
			if fn := calleeFunc(info, c); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "math/bits" &&
				(strings.HasPrefix(fn.Name(), "Len") || strings.HasPrefix(fn.Name(), "LeadingZeros")) {
				found = true
			}
		}
		return !found
	})
	return found
}

// loopDefinition resolves e, if it is a variable defined by a single := in
// loop's body, to the defining expression; otherwise it returns e.
func loopDefinition(info *types.Info, loop ast.Stmt, e ast.Expr) ast.Expr {
	id, ok := e.(*ast.Ident)
	if !ok {
		return e
	}
	obj := info.ObjectOf(id)
	def := e
	ast.Inspect(loop, func(x ast.Node) bool {
		if as, ok := x.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == 1 && len(as.Rhs) == 1 &&
			isIdentFor(info, as.Lhs[0], obj) {
			def = unwrap(as.Rhs[0])
		}
		return true
	})
	return def
}

func isIdentFor(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, ok := unwrap(e).(*ast.Ident)
	return ok && obj != nil && info.ObjectOf(id) == obj
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := unwrap(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}

func isOneLit(e ast.Expr) bool {
	bl, ok := unwrap(e).(*ast.BasicLit)
	return ok && bl.Value == "1"
}

// exprKey renders a canonical key for an index expression (best effort;
// distinct syntax means distinct tokens — the documented boundary).
func exprKey(e ast.Expr) string {
	switch e := unwrap(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.CallExpr:
		return exprKey(e.Fun) + "(...)"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("expr@%d", e.Pos())
	}
}

// mergeLockFacts joins two path states. Identical states merge to
// themselves; divergent held sets merge to the union (ordered by the first
// operand, then the second's extras) so a lock held on only one inbound path
// still demands a release downstream. Divergent defer lists keep the longer
// (registration is monotone along a path, so one is a prefix of the other in
// well-formed code).
func mergeLockFacts(a, b lockFact) Fact {
	if a == b {
		return a
	}
	held := splitKeys(a.held)
	haveToken := make(map[string]bool, len(held))
	for _, h := range held {
		haveToken[h] = true
	}
	for _, h := range splitKeys(b.held) {
		if !haveToken[h] {
			held = append(held, h)
			haveToken[h] = true
		}
	}
	defers := a.defers
	if len(splitKeys(b.defers)) > len(splitKeys(a.defers)) {
		defers = b.defers
	}
	return lockFact{held: joinKeys(held), defers: defers}
}
