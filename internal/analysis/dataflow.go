package analysis

import "go/ast"

// This file implements the small forward-dataflow framework the
// path-sensitive checks share. A check supplies a Flow — an abstract entry
// state, a per-node transfer function, and a merge — and Forward computes
// the fixpoint of block-entry states over a CFG with a classic worklist
// iteration. Facts are treated as immutable values: a transfer function that
// changes the state must return a fresh fact, never mutate its argument, or
// the memoized block states would be silently corrupted.
//
// Termination is the check's responsibility: its lattice must have finite
// height (every fact domain used here is a finite set keyed by program
// points, or a boolean), and Merge/Transfer must be monotone. The solver
// additionally hard-caps iterations as a defense against a non-monotone
// check bug, returning the (possibly unconverged) state rather than hanging
// the linter.

// Fact is one abstract state. Concrete types are check-private.
type Fact any

// Flow defines a forward dataflow problem over a CFG.
type Flow struct {
	// Entry is the state on function entry.
	Entry Fact
	// Transfer applies one leaf node's effect to the incoming state.
	Transfer func(f Fact, n ast.Node) Fact
	// Merge combines the states of two predecessors at a join point.
	Merge func(a, b Fact) Fact
	// Equal reports whether two facts are the same state (convergence test).
	Equal func(a, b Fact) bool
	// Edge, when set, refines a block's exit state for one successor — how a
	// check learns which way an if condition went (Block.Cond/Then).
	Edge func(f Fact, from, to *Block) Fact
}

// Forward computes the entry state of every reachable block. Blocks
// unreachable from Entry are absent from the result.
func Forward(g *CFG, fl Flow) map[*Block]Fact {
	in := make(map[*Block]Fact)
	in[g.Entry] = fl.Entry

	reach := g.Reachable()
	// Worklist seeded in block order; bounded to defend against a
	// non-monotone transfer (2^10 visits per block is far beyond any lattice
	// used here).
	work := append([]*Block(nil), reach...)
	budget := 1024 * len(g.Blocks)
	for len(work) > 0 && budget > 0 {
		budget--
		b := work[0]
		work = work[1:]
		st, ok := in[b]
		if !ok {
			continue
		}
		out := transferBlock(st, b, fl.Transfer)
		for _, s := range b.Succs {
			out := out
			if fl.Edge != nil {
				out = fl.Edge(out, b, s)
			}
			old, seen := in[s]
			var merged Fact
			if !seen {
				merged = out
			} else {
				merged = fl.Merge(old, out)
			}
			if !seen || !fl.Equal(old, merged) {
				in[s] = merged
				work = append(work, s)
			}
		}
	}
	return in
}

// transferBlock folds the transfer function over a block's nodes.
func transferBlock(f Fact, b *Block, transfer func(Fact, ast.Node) Fact) Fact {
	for _, n := range b.Nodes {
		f = transfer(f, n)
	}
	return f
}

// ReplayBlock re-runs the transfer function over one block starting from its
// converged entry state, invoking visit with the state *before* each node.
// Checks use it to report diagnostics at specific nodes with the exact
// abstract state that reaches them.
func ReplayBlock(entry Fact, b *Block, transfer func(Fact, ast.Node) Fact, visit func(f Fact, n ast.Node)) {
	f := entry
	for _, n := range b.Nodes {
		visit(f, n)
		f = transfer(f, n)
	}
}
