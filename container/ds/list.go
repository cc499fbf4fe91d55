// Package ds provides transactional data structures built on the stm public
// API: a sorted linked-list set, a fixed-bucket hash map, and a FIFO queue.
// They are the substrates for the STAMP workload ports (genome's segment
// table, intruder's fragment map and work queues, vacation's relations).
//
// The structures follow the paper's framing: they are *generic* STM
// structures, so every traversed node is monitored (§I's linked-list
// example) — exactly the read-set shapes whose validation/invalidation cost
// the algorithms under study trade against each other.
package ds

import "github.com/ssrg-vt/rinval/stm"

// listNode is one cell of the sorted list. next is transactional; key is
// immutable after insertion. The Vars are held by value (stm.InitVar), so a
// node is one allocation besides its two cells.
type listNode struct {
	key  int
	val  stm.Var[int]
	next stm.Var[*listNode]
}

// List is a transactional sorted set/map with int keys. Operations are
// O(n) traversals with every hop in the read set — the canonical
// long-read-chain STM workload.
type List struct {
	head *stm.Var[*listNode] // smallest key first
	size *stm.Var[int]
}

// NewList returns an empty list.
func NewList() *List {
	return &List{
		head: stm.NewVar[*listNode](nil),
		size: stm.NewVar(0),
	}
}

// search returns the first node with key >= k and its predecessor (nil when
// the match is at the head).
func (l *List) search(tx *stm.Tx, k int) (prev, cur *listNode) {
	cur = l.head.Load(tx)
	for cur != nil && cur.key < k {
		prev = cur
		cur = cur.next.Load(tx)
	}
	return prev, cur
}

// Insert adds k->v, returning true if k was absent; an existing key has its
// value replaced.
func (l *List) Insert(tx *stm.Tx, k, v int) bool {
	prev, cur := l.search(tx, k)
	if cur != nil && cur.key == k {
		cur.val.Store(tx, v)
		return false
	}
	n := &listNode{key: k}
	stm.InitVar(&n.val, v)
	stm.InitVar(&n.next, cur)
	if prev == nil {
		l.head.Store(tx, n)
	} else {
		prev.next.Store(tx, n)
	}
	l.size.Store(tx, l.size.Load(tx)+1)
	return true
}

// Delete removes k, returning true if present.
func (l *List) Delete(tx *stm.Tx, k int) bool {
	prev, cur := l.search(tx, k)
	if cur == nil || cur.key != k {
		return false
	}
	next := cur.next.Load(tx)
	if prev == nil {
		l.head.Store(tx, next)
	} else {
		prev.next.Store(tx, next)
	}
	l.size.Store(tx, l.size.Load(tx)-1)
	return true
}

// Contains reports whether k is present.
func (l *List) Contains(tx *stm.Tx, k int) bool {
	_, cur := l.search(tx, k)
	return cur != nil && cur.key == k
}

// Get returns the value stored for k.
func (l *List) Get(tx *stm.Tx, k int) (int, bool) {
	_, cur := l.search(tx, k)
	if cur == nil || cur.key != k {
		return 0, false
	}
	return cur.val.Load(tx), true
}

// Size returns the element count.
func (l *List) Size(tx *stm.Tx) int { return l.size.Load(tx) }

// Sum folds all values — a whole-structure read, used to stress read-set
// growth and as an auditing primitive in tests.
func (l *List) Sum(tx *stm.Tx) int {
	total := 0
	for cur := l.head.Load(tx); cur != nil; cur = cur.next.Load(tx) {
		total += cur.val.Load(tx)
	}
	return total
}

// KeysQuiescent returns the keys in order without a transaction (tests and
// post-run validation only).
func (l *List) KeysQuiescent() []int {
	var out []int
	for cur := l.head.Peek(); cur != nil; cur = cur.next.Peek() {
		out = append(out, cur.key)
	}
	return out
}
