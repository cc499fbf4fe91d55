// Package rbtree implements a transactional red-black tree set/map — the
// micro-benchmark of the paper's Figures 2 and 7 (64K-element tree, 50%/80%
// lookup mixes).
//
// Every node field (key, value, links, color) is its own transactional Var,
// so a lookup's read set is ~2 Vars per level and an insert/delete writes
// only the rebalancing path — the access pattern that makes the tree a good
// STM stressor: long read chains (quadratic incremental validation hurts)
// and small, conflict-prone writes near the root. A node holds those Vars by
// value, so the node and its Vars are one object.
//
// The algorithm is the classic parent-pointer red-black tree with nil-safe
// helpers (colorOf(nil) = black) rather than a shared sentinel node: a
// sentinel's mutable parent field would be written by every structural
// delete, manufacturing false conflicts between otherwise disjoint
// transactions.
package rbtree

import (
	"fmt"

	"github.com/ssrg-vt/rinval/stm"
)

// node is one tree entry, and one object: it holds its six Vars by value
// (stm.InitVar), so a new node is seven allocations — the node and one cell
// per Var — and a step down the tree goes from the node straight to the
// child link's cell. Key is mutable (a Var) because deletion of a two-child
// node copies the successor's key/value into it, as in the textbook
// algorithm.
type node struct {
	key    stm.Var[int]
	value  stm.Var[int]
	lchild stm.Var[*node]
	rchild stm.Var[*node]
	parent stm.Var[*node]
	red    stm.Var[bool]
	// left is &lchild, and nothing here reads it. The repository benchmark's
	// self-test (TestChecksCatchCorruption) cuts a tree by reflection: it
	// takes the field named left and calls its Set method, which a Var held
	// by value has only through its address.
	left *stm.Var[*node]
}

func newNode(key, value int, parent *node, red bool) *node {
	n := new(node)
	stm.InitVar(&n.key, key)
	stm.InitVar(&n.value, value)
	stm.InitVar(&n.lchild, nil)
	stm.InitVar(&n.rchild, nil)
	stm.InitVar(&n.parent, parent)
	stm.InitVar(&n.red, red)
	n.left = &n.lchild
	return n
}

// Tree is a transactional ordered map from int keys to int values. All
// operations must run inside a transaction; Check* and Keys are quiescent
// helpers for tests and validation.
type Tree struct {
	root *stm.Var[*node]
	size *stm.Var[int]
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{
		root: stm.NewVar[*node](nil),
		size: stm.NewVar(0),
	}
}

// nil-safe accessors. A nil node reads as a black leaf with no links, which
// collapses the textbook's sentinel special cases.

func leftOf(tx *stm.Tx, n *node) *node {
	if n == nil {
		return nil
	}
	return n.lchild.Load(tx)
}

func rightOf(tx *stm.Tx, n *node) *node {
	if n == nil {
		return nil
	}
	return n.rchild.Load(tx)
}

func parentOf(tx *stm.Tx, n *node) *node {
	if n == nil {
		return nil
	}
	return n.parent.Load(tx)
}

func isRed(tx *stm.Tx, n *node) bool {
	return n != nil && n.red.Load(tx)
}

func setRed(tx *stm.Tx, n *node, red bool) {
	if n != nil {
		n.red.Store(tx, red)
	}
}

// lookup returns the node with the given key, or nil.
func (t *Tree) lookup(tx *stm.Tx, key int) *node {
	n := t.root.Load(tx)
	for n != nil {
		k := n.key.Load(tx)
		switch {
		case key < k:
			n = n.lchild.Load(tx)
		case key > k:
			n = n.rchild.Load(tx)
		default:
			return n
		}
	}
	return nil
}

// Contains reports whether key is present.
func (t *Tree) Contains(tx *stm.Tx, key int) bool {
	return t.lookup(tx, key) != nil
}

// Get returns the value stored for key.
func (t *Tree) Get(tx *stm.Tx, key int) (int, bool) {
	n := t.lookup(tx, key)
	if n == nil {
		return 0, false
	}
	return n.value.Load(tx), true
}

// Size returns the number of keys.
func (t *Tree) Size(tx *stm.Tx) int { return t.size.Load(tx) }

// Insert adds key->value, returning true if the key was absent. An existing
// key has its value replaced (and Insert returns false).
func (t *Tree) Insert(tx *stm.Tx, key, value int) bool {
	cur := t.root.Load(tx)
	if cur == nil {
		t.root.Store(tx, newNode(key, value, nil, false))
		t.size.Store(tx, 1)
		return true
	}
	var parent *node
	var wentLeft bool
	for cur != nil {
		parent = cur
		k := cur.key.Load(tx)
		switch {
		case key < k:
			cur = cur.lchild.Load(tx)
			wentLeft = true
		case key > k:
			cur = cur.rchild.Load(tx)
			wentLeft = false
		default:
			cur.value.Store(tx, value)
			return false
		}
	}
	n := newNode(key, value, parent, true)
	if wentLeft {
		parent.lchild.Store(tx, n)
	} else {
		parent.rchild.Store(tx, n)
	}
	t.fixAfterInsertion(tx, n)
	t.size.Store(tx, t.size.Load(tx)+1)
	return true
}

func (t *Tree) rotateLeft(tx *stm.Tx, p *node) {
	r := p.rchild.Load(tx)
	rl := r.lchild.Load(tx)
	p.rchild.Store(tx, rl)
	if rl != nil {
		rl.parent.Store(tx, p)
	}
	pp := p.parent.Load(tx)
	r.parent.Store(tx, pp)
	if pp == nil {
		t.root.Store(tx, r)
	} else if pp.lchild.Load(tx) == p {
		pp.lchild.Store(tx, r)
	} else {
		pp.rchild.Store(tx, r)
	}
	r.lchild.Store(tx, p)
	p.parent.Store(tx, r)
}

func (t *Tree) rotateRight(tx *stm.Tx, p *node) {
	l := p.lchild.Load(tx)
	lr := l.rchild.Load(tx)
	p.lchild.Store(tx, lr)
	if lr != nil {
		lr.parent.Store(tx, p)
	}
	pp := p.parent.Load(tx)
	l.parent.Store(tx, pp)
	if pp == nil {
		t.root.Store(tx, l)
	} else if pp.rchild.Load(tx) == p {
		pp.rchild.Store(tx, l)
	} else {
		pp.lchild.Store(tx, l)
	}
	l.rchild.Store(tx, p)
	p.parent.Store(tx, l)
}

func (t *Tree) fixAfterInsertion(tx *stm.Tx, x *node) {
	for x != nil && x != t.root.Load(tx) && isRed(tx, parentOf(tx, x)) {
		p := parentOf(tx, x)
		g := parentOf(tx, p)
		if p == leftOf(tx, g) {
			u := rightOf(tx, g)
			if isRed(tx, u) {
				setRed(tx, p, false)
				setRed(tx, u, false)
				setRed(tx, g, true)
				x = g
			} else {
				if x == rightOf(tx, p) {
					x = p
					t.rotateLeft(tx, x)
					p = parentOf(tx, x)
					g = parentOf(tx, p)
				}
				setRed(tx, p, false)
				setRed(tx, g, true)
				if g != nil {
					t.rotateRight(tx, g)
				}
			}
		} else {
			u := leftOf(tx, g)
			if isRed(tx, u) {
				setRed(tx, p, false)
				setRed(tx, u, false)
				setRed(tx, g, true)
				x = g
			} else {
				if x == leftOf(tx, p) {
					x = p
					t.rotateRight(tx, x)
					p = parentOf(tx, x)
					g = parentOf(tx, p)
				}
				setRed(tx, p, false)
				setRed(tx, g, true)
				if g != nil {
					t.rotateLeft(tx, g)
				}
			}
		}
	}
	setRed(tx, t.root.Load(tx), false)
}

// successor returns the node with the smallest key greater than n's.
func successor(tx *stm.Tx, n *node) *node {
	if r := rightOf(tx, n); r != nil {
		for l := leftOf(tx, r); l != nil; l = leftOf(tx, r) {
			r = l
		}
		return r
	}
	p := parentOf(tx, n)
	ch := n
	for p != nil && ch == rightOf(tx, p) {
		ch = p
		p = parentOf(tx, p)
	}
	return p
}

// Delete removes key, returning true if it was present.
func (t *Tree) Delete(tx *stm.Tx, key int) bool {
	p := t.lookup(tx, key)
	if p == nil {
		return false
	}
	t.deleteNode(tx, p)
	t.size.Store(tx, t.size.Load(tx)-1)
	return true
}

func (t *Tree) deleteNode(tx *stm.Tx, p *node) {
	// Two children: copy successor's key/value into p, then delete the
	// successor (which has at most one child).
	if leftOf(tx, p) != nil && rightOf(tx, p) != nil {
		s := successor(tx, p)
		p.key.Store(tx, s.key.Load(tx))
		p.value.Store(tx, s.value.Load(tx))
		p = s
	}
	repl := leftOf(tx, p)
	if repl == nil {
		repl = rightOf(tx, p)
	}
	pp := parentOf(tx, p)
	if repl != nil {
		// Splice out p, linking repl in its place.
		repl.parent.Store(tx, pp)
		if pp == nil {
			t.root.Store(tx, repl)
		} else if p == leftOf(tx, pp) {
			pp.lchild.Store(tx, repl)
		} else {
			pp.rchild.Store(tx, repl)
		}
		p.lchild.Store(tx, nil)
		p.rchild.Store(tx, nil)
		p.parent.Store(tx, nil)
		if !isRed(tx, p) {
			t.fixAfterDeletion(tx, repl)
		}
	} else if pp == nil {
		// p was the only node.
		t.root.Store(tx, nil)
	} else {
		// p is a leaf: fix up first (using p as the doubly black phantom),
		// then unlink.
		if !isRed(tx, p) {
			t.fixAfterDeletion(tx, p)
		}
		pp2 := parentOf(tx, p)
		if pp2 != nil {
			if p == leftOf(tx, pp2) {
				pp2.lchild.Store(tx, nil)
			} else {
				pp2.rchild.Store(tx, nil)
			}
			p.parent.Store(tx, nil)
		}
	}
}

func (t *Tree) fixAfterDeletion(tx *stm.Tx, x *node) {
	for x != t.root.Load(tx) && !isRed(tx, x) {
		p := parentOf(tx, x)
		if x == leftOf(tx, p) {
			sib := rightOf(tx, p)
			if isRed(tx, sib) {
				setRed(tx, sib, false)
				setRed(tx, p, true)
				t.rotateLeft(tx, p)
				p = parentOf(tx, x)
				sib = rightOf(tx, p)
			}
			if !isRed(tx, leftOf(tx, sib)) && !isRed(tx, rightOf(tx, sib)) {
				setRed(tx, sib, true)
				x = p
			} else {
				if !isRed(tx, rightOf(tx, sib)) {
					setRed(tx, leftOf(tx, sib), false)
					setRed(tx, sib, true)
					t.rotateRight(tx, sib)
					p = parentOf(tx, x)
					sib = rightOf(tx, p)
				}
				setRed(tx, sib, isRed(tx, p))
				setRed(tx, p, false)
				setRed(tx, rightOf(tx, sib), false)
				t.rotateLeft(tx, p)
				x = t.root.Load(tx)
			}
		} else {
			sib := leftOf(tx, p)
			if isRed(tx, sib) {
				setRed(tx, sib, false)
				setRed(tx, p, true)
				t.rotateRight(tx, p)
				p = parentOf(tx, x)
				sib = leftOf(tx, p)
			}
			if !isRed(tx, rightOf(tx, sib)) && !isRed(tx, leftOf(tx, sib)) {
				setRed(tx, sib, true)
				x = p
			} else {
				if !isRed(tx, leftOf(tx, sib)) {
					setRed(tx, rightOf(tx, sib), false)
					setRed(tx, sib, true)
					t.rotateLeft(tx, sib)
					p = parentOf(tx, x)
					sib = leftOf(tx, p)
				}
				setRed(tx, sib, isRed(tx, p))
				setRed(tx, p, false)
				setRed(tx, leftOf(tx, sib), false)
				t.rotateRight(tx, p)
				x = t.root.Load(tx)
			}
		}
	}
	setRed(tx, x, false)
}

// --- Quiescent helpers (no transaction; for setup, tests, validation) ---

// Keys returns the keys in order. Quiescent only.
func (t *Tree) Keys() []int {
	var out []int
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		walk(n.lchild.Peek())
		out = append(out, n.key.Peek())
		walk(n.rchild.Peek())
	}
	walk(t.root.Peek())
	return out
}

// SizeQuiescent returns the size counter without a transaction.
func (t *Tree) SizeQuiescent() int { return t.size.Peek() }

// GetQuiescent returns the value stored for key without a transaction.
// Quiescent only.
func (t *Tree) GetQuiescent(key int) (int, bool) {
	n := t.root.Peek()
	for n != nil {
		k := n.key.Peek()
		switch {
		case key < k:
			n = n.lchild.Peek()
		case key > k:
			n = n.rchild.Peek()
		default:
			return n.value.Peek(), true
		}
	}
	return 0, false
}

// CheckInvariants verifies, quiescently, every red-black property plus BST
// order, parent-link integrity, and the size counter. It returns the first
// violation found.
func (t *Tree) CheckInvariants() error {
	root := t.root.Peek()
	if root == nil {
		if n := t.size.Peek(); n != 0 {
			return fmt.Errorf("empty tree but size=%d", n)
		}
		return nil
	}
	if root.red.Peek() {
		return fmt.Errorf("root is red")
	}
	if root.parent.Peek() != nil {
		return fmt.Errorf("root has a parent")
	}
	count := 0
	var check func(n *node, min, max int, haveMin, haveMax bool) (blackHeight int, err error)
	check = func(n *node, min, max int, haveMin, haveMax bool) (int, error) {
		if n == nil {
			return 1, nil
		}
		count++
		k := n.key.Peek()
		if haveMin && k <= min {
			return 0, fmt.Errorf("BST violation: key %d <= bound %d", k, min)
		}
		if haveMax && k >= max {
			return 0, fmt.Errorf("BST violation: key %d >= bound %d", k, max)
		}
		l, r := n.lchild.Peek(), n.rchild.Peek()
		if l != nil && l.parent.Peek() != n {
			return 0, fmt.Errorf("parent link broken at key %d (left child)", k)
		}
		if r != nil && r.parent.Peek() != n {
			return 0, fmt.Errorf("parent link broken at key %d (right child)", k)
		}
		if n.red.Peek() {
			if l != nil && l.red.Peek() || r != nil && r.red.Peek() {
				return 0, fmt.Errorf("red node %d has a red child", k)
			}
		}
		lb, err := check(l, min, k, haveMin, true)
		if err != nil {
			return 0, err
		}
		rb, err := check(r, k, max, true, haveMax)
		if err != nil {
			return 0, err
		}
		if lb != rb {
			return 0, fmt.Errorf("black-height mismatch at key %d: %d vs %d", k, lb, rb)
		}
		if n.red.Peek() {
			return lb, nil
		}
		return lb + 1, nil
	}
	if _, err := check(root, 0, 0, false, false); err != nil {
		return err
	}
	if got := t.size.Peek(); got != count {
		return fmt.Errorf("size counter %d != node count %d", got, count)
	}
	return nil
}
