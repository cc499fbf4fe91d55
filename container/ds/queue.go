package ds

import "github.com/ssrg-vt/rinval/stm"

// Queue is a transactional FIFO of T values, implemented as a linked list
// with separate head and tail Vars so enqueuers and dequeuers conflict only
// when the queue is near-empty — intruder's packet and decode queues.
type Queue[T any] struct {
	head *stm.Var[*qnode[T]] // next to dequeue
	tail *stm.Var[*qnode[T]] // last enqueued
	size *stm.Var[int]
}

// qnode holds its next Var by value (stm.InitVar): one allocation besides
// its cell.
type qnode[T any] struct {
	val  T
	next stm.Var[*qnode[T]]
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] {
	return &Queue[T]{
		head: stm.NewVar[*qnode[T]](nil),
		tail: stm.NewVar[*qnode[T]](nil),
		size: stm.NewVar(0),
	}
}

// Enqueue appends v.
func (q *Queue[T]) Enqueue(tx *stm.Tx, v T) {
	n := &qnode[T]{val: v}
	stm.InitVar(&n.next, nil)
	t := q.tail.Load(tx)
	if t == nil {
		q.head.Store(tx, n)
	} else {
		t.next.Store(tx, n)
	}
	q.tail.Store(tx, n)
	q.size.Store(tx, q.size.Load(tx)+1)
}

// Dequeue removes and returns the oldest element; ok=false when empty.
func (q *Queue[T]) Dequeue(tx *stm.Tx) (v T, ok bool) {
	h := q.head.Load(tx)
	if h == nil {
		var zero T
		return zero, false
	}
	next := h.next.Load(tx)
	q.head.Store(tx, next)
	if next == nil {
		q.tail.Store(tx, nil)
	}
	q.size.Store(tx, q.size.Load(tx)-1)
	return h.val, true
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek(tx *stm.Tx) (v T, ok bool) {
	h := q.head.Load(tx)
	if h == nil {
		var zero T
		return zero, false
	}
	return h.val, true
}

// Size returns the element count.
func (q *Queue[T]) Size(tx *stm.Tx) int { return q.size.Load(tx) }

// DrainQuiescent pops everything without a transaction (tests and post-run
// validation only).
func (q *Queue[T]) DrainQuiescent() []T {
	var out []T
	for n := q.head.Peek(); n != nil; n = n.next.Peek() {
		out = append(out, n.val)
	}
	q.head.Set(nil)
	q.tail.Set(nil)
	q.size.Set(0)
	return out
}
