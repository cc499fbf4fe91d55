package ds

import "github.com/ssrg-vt/rinval/stm"

// pqNode is one node of the skew heap. key is immutable; children are
// transactional Vars held by value (stm.InitVar), so a node is one allocation
// besides its two cells.
type pqNode struct {
	key   int
	val   int
	left  stm.Var[*pqNode]
	right stm.Var[*pqNode]
}

// PQueue is a transactional min-priority queue implemented as a skew heap:
// all structural updates are expressed through the self-adjusting merge, so
// the transactional footprint of an insert or pop is one root-to-leaf path
// (O(log n) amortized). Concurrent inserts near the root conflict — the
// structure is intentionally "generic STM" like the rest of this package.
type PQueue struct {
	root *stm.Var[*pqNode]
	size *stm.Var[int]
}

// NewPQueue returns an empty priority queue.
func NewPQueue() *PQueue {
	return &PQueue{
		root: stm.NewVar[*pqNode](nil),
		size: stm.NewVar(0),
	}
}

// merge combines two skew heaps, returning the new root. It writes the
// child links along the merge path (the skew swap).
func merge(tx *stm.Tx, a, b *pqNode) *pqNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if b.key < a.key {
		a, b = b, a
	}
	// Merge b into a's right child, then swap children (skew step).
	merged := merge(tx, a.right.Load(tx), b)
	l := a.left.Load(tx)
	a.left.Store(tx, merged)
	a.right.Store(tx, l)
	return a
}

// Insert adds key with an associated value.
func (q *PQueue) Insert(tx *stm.Tx, key, val int) {
	n := &pqNode{key: key, val: val}
	stm.InitVar(&n.left, nil)
	stm.InitVar(&n.right, nil)
	q.root.Store(tx, merge(tx, q.root.Load(tx), n))
	q.size.Store(tx, q.size.Load(tx)+1)
}

// Min returns the smallest key and its value without removing it.
func (q *PQueue) Min(tx *stm.Tx) (key, val int, ok bool) {
	r := q.root.Load(tx)
	if r == nil {
		return 0, 0, false
	}
	return r.key, r.val, true
}

// PopMin removes and returns the smallest key and its value.
func (q *PQueue) PopMin(tx *stm.Tx) (key, val int, ok bool) {
	r := q.root.Load(tx)
	if r == nil {
		return 0, 0, false
	}
	q.root.Store(tx, merge(tx, r.left.Load(tx), r.right.Load(tx)))
	q.size.Store(tx, q.size.Load(tx)-1)
	return r.key, r.val, true
}

// Size returns the element count.
func (q *PQueue) Size(tx *stm.Tx) int { return q.size.Load(tx) }

// CheckInvariants verifies, quiescently, the heap order property and that
// the size counter matches the node count.
func (q *PQueue) CheckInvariants() error {
	count := 0
	var walk func(n *pqNode, bound int, haveBound bool) error
	walk = func(n *pqNode, bound int, haveBound bool) error {
		if n == nil {
			return nil
		}
		count++
		if haveBound && n.key < bound {
			return skiplistError("pqueue: heap violation: child " + itoa(n.key) + " < parent " + itoa(bound))
		}
		if err := walk(n.left.Peek(), n.key, true); err != nil {
			return err
		}
		return walk(n.right.Peek(), n.key, true)
	}
	if err := walk(q.root.Peek(), 0, false); err != nil {
		return err
	}
	if got := q.size.Peek(); got != count {
		return skiplistError("pqueue: size " + itoa(got) + " != node count " + itoa(count))
	}
	return nil
}
