package ds

import (
	"math/bits"

	"github.com/ssrg-vt/rinval/stm"
)

// slMaxLevel bounds skiplist towers; 2^16 expected elements is far beyond
// any workload in this repository.
const slMaxLevel = 16

// slNode is one skiplist tower. key is immutable; the forward pointers are
// transactional. val and the tower's Vars are held by value (stm.InitVar): a
// tower is two allocations, the node and its next array, besides one cell per
// Var.
type slNode struct {
	key  int
	val  stm.Var[int]
	next []stm.Var[*slNode]
}

// SkipList is a transactional sorted map with O(log n) expected searches —
// the logarithmic counterpart to List for workloads where O(n) chains
// dominate transaction length. Tower heights are derived deterministically
// from the key's hash, so structure (and therefore conflict patterns) are
// identical across runs and engines.
type SkipList struct {
	head *slNode // sentinel, full height, key irrelevant
	size *stm.Var[int]
}

// NewSkipList returns an empty skiplist.
func NewSkipList() *SkipList {
	head := &slNode{key: -1 << 62, next: make([]stm.Var[*slNode], slMaxLevel)}
	for i := range head.next {
		stm.InitVar(&head.next[i], nil)
	}
	return &SkipList{head: head, size: stm.NewVar(0)}
}

// levelFor derives a geometric(1/2) tower height from the key.
func levelFor(key int) int {
	h := HashInt(key ^ 0x5b1f)
	lvl := 1 + bits.TrailingZeros64(h|1<<(slMaxLevel-1))
	if lvl > slMaxLevel {
		lvl = slMaxLevel
	}
	return lvl
}

// findPredecessors fills pred[i] with the rightmost node at level i whose
// key precedes k, and returns the node at level 0 after pred[0] (the
// candidate match).
func (s *SkipList) findPredecessors(tx *stm.Tx, k int, pred *[slMaxLevel]*slNode) *slNode {
	cur := s.head
	for lvl := slMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := cur.next[lvl].Load(tx)
			if nxt == nil || nxt.key >= k {
				break
			}
			cur = nxt
		}
		pred[lvl] = cur
	}
	return pred[0].next[0].Load(tx)
}

// Contains reports whether k is present.
func (s *SkipList) Contains(tx *stm.Tx, k int) bool {
	var pred [slMaxLevel]*slNode
	n := s.findPredecessors(tx, k, &pred)
	return n != nil && n.key == k
}

// Get returns the value stored for k.
func (s *SkipList) Get(tx *stm.Tx, k int) (int, bool) {
	var pred [slMaxLevel]*slNode
	n := s.findPredecessors(tx, k, &pred)
	if n == nil || n.key != k {
		return 0, false
	}
	return n.val.Load(tx), true
}

// Insert adds k->v, returning true if k was absent; an existing key has its
// value replaced.
func (s *SkipList) Insert(tx *stm.Tx, k, v int) bool {
	var pred [slMaxLevel]*slNode
	n := s.findPredecessors(tx, k, &pred)
	if n != nil && n.key == k {
		n.val.Store(tx, v)
		return false
	}
	lvl := levelFor(k)
	node := &slNode{key: k, next: make([]stm.Var[*slNode], lvl)}
	stm.InitVar(&node.val, v)
	for i := 0; i < lvl; i++ {
		stm.InitVar(&node.next[i], pred[i].next[i].Load(tx))
		pred[i].next[i].Store(tx, node)
	}
	s.size.Store(tx, s.size.Load(tx)+1)
	return true
}

// Delete removes k, returning true if it was present.
func (s *SkipList) Delete(tx *stm.Tx, k int) bool {
	var pred [slMaxLevel]*slNode
	n := s.findPredecessors(tx, k, &pred)
	if n == nil || n.key != k {
		return false
	}
	for i := 0; i < len(n.next); i++ {
		if pred[i].next[i].Load(tx) == n {
			pred[i].next[i].Store(tx, n.next[i].Load(tx))
		}
	}
	s.size.Store(tx, s.size.Load(tx)-1)
	return true
}

// Size returns the element count.
func (s *SkipList) Size(tx *stm.Tx) int { return s.size.Load(tx) }

// RangeCount counts keys in [lo, hi) — a multi-node read exercising long
// read sets at the bottom level.
func (s *SkipList) RangeCount(tx *stm.Tx, lo, hi int) int {
	var pred [slMaxLevel]*slNode
	n := s.findPredecessors(tx, lo, &pred)
	count := 0
	for n != nil && n.key < hi {
		count++
		n = n.next[0].Load(tx)
	}
	return count
}

// KeysQuiescent returns all keys in order without a transaction (tests and
// post-run validation only).
func (s *SkipList) KeysQuiescent() []int {
	var out []int
	for n := s.head.next[0].Peek(); n != nil; n = n.next[0].Peek() {
		out = append(out, n.key)
	}
	return out
}

// CheckInvariants verifies, quiescently, per-level ordering and that every
// level's chain is a subsequence of level 0.
func (s *SkipList) CheckInvariants() error {
	base := map[int]bool{}
	prev := s.head.key
	for n := s.head.next[0].Peek(); n != nil; n = n.next[0].Peek() {
		if n.key <= prev {
			return errOrder(0, prev, n.key)
		}
		prev = n.key
		base[n.key] = true
	}
	for lvl := 1; lvl < slMaxLevel; lvl++ {
		prev := s.head.key
		for n := s.head.next[lvl].Peek(); n != nil; {
			if n.key <= prev {
				return errOrder(lvl, prev, n.key)
			}
			if !base[n.key] {
				return errOrphan(lvl, n.key)
			}
			prev = n.key
			if lvl >= len(n.next) {
				return errHeight(lvl, n.key)
			}
			n = n.next[lvl].Peek()
		}
	}
	if got, want := s.size.Peek(), len(base); got != want {
		return errSize(got, want)
	}
	return nil
}

type skiplistError string

func (e skiplistError) Error() string { return string(e) }

func errOrder(lvl, prev, key int) error {
	return skiplistError("skiplist: order violation at level " + itoa(lvl) + ": " + itoa(prev) + " before " + itoa(key))
}
func errOrphan(lvl, key int) error {
	return skiplistError("skiplist: level " + itoa(lvl) + " node " + itoa(key) + " missing from level 0")
}
func errHeight(lvl, key int) error {
	return skiplistError("skiplist: node " + itoa(key) + " linked above its height at level " + itoa(lvl))
}
func errSize(got, want int) error {
	return skiplistError("skiplist: size counter " + itoa(got) + " != node count " + itoa(want))
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [24]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
