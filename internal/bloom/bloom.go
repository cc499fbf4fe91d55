// Package bloom implements the fixed-size bloom filters that InvalSTM and
// RInval use as read/write-set signatures.
//
// Invalidation compares the committer's write signature against every
// in-flight transaction's read signature in O(filter words) time, independent
// of the actual set sizes — the property the paper relies on to make
// invalidation constant time per transaction (§II). Filters trade precision
// for that speed: a bit collision manifests as a false conflict and a
// spurious abort, never as a missed conflict.
//
// Two variants are provided. Filter is a plain, single-owner filter for write
// sets (built privately, published by value at commit time). Atomic is a
// concurrently readable filter for read sets: the owning transaction adds
// bits while invalidation servers intersect against it, so its words are
// atomics and Add uses a release-ordered OR — a reader that observes the bit
// also observes everything the adder did before setting it.
//
// The layout is one-word (blocked): an element hashes to one 64-bit word and
// to k distinct bits inside it, so inserting it is one OR of a k-bit mask —
// for Atomic, one locked instruction per transactional read whatever k is,
// and no other. An element's two hashes depend only on its id (KeyOf), so a
// caller that inserts the same id often computes its Key once and uses AddKey.
// Intersection tests bit density, which the layout does not change.
//
// Filter additionally maintains a 64-bit summary signature, the OR of every
// inserted mask (the column-fold of its words), which costs it no locked
// instruction: two Filters whose summaries are disjoint share no bit.
// Atomic keeps none — a summary would be a second locked OR per read.
// Instead Atomic.IntersectsFilter loads only the words where the write
// filter has a bit, so a scan rejects a non-conflicting read set of a short
// commit in one or two word loads.
package bloom

import (
	"fmt"
	"sync/atomic"
)

// Params fixes a filter geometry. All filters that are intersected with each
// other must share the same Params.
type Params struct {
	Bits   int // number of bits; must be a power of two and a multiple of 64
	Hashes int // number of bits set per element (k), all in one word; 1..8
}

// DefaultParams matches the configuration used by the benchmark harness:
// 1024 bits x 2 hashes keeps the per-slot signature to two cache lines and
// the membership false-positive rate near 2% for read sets of ~64 elements.
var DefaultParams = Params{Bits: 1024, Hashes: 2}

// Validate returns an error unless p is a usable geometry. Hashes is capped
// at 8: an element's k bits share one 64-bit word, which wider masks saturate.
func (p Params) Validate() error {
	if p.Bits < 64 || p.Bits&(p.Bits-1) != 0 || p.Hashes < 1 || p.Hashes > 8 {
		return fmt.Errorf("bloom: invalid %+v: Bits must be a power of two >= 64, Hashes in [1,8]", p)
	}
	return nil
}

// Words returns the number of 64-bit words backing a filter with geometry p.
func (p Params) Words() int { return p.Bits / 64 }

// splitmix64 is the finalizer of the SplitMix64 generator; it is a strong,
// cheap 64-bit mixer used to derive bit positions from element identities.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Key is an element's pair of hashes, independent of the filter geometry:
// H1 = splitmix64(id) places the word and the first bit, H2 (odd) steps to
// the others. H1 is a well-mixed hash of the id in its own right, so a
// caller may mask it for other placements too.
type Key struct{ H1, H2 uint64 }

// KeyOf hashes id. It is the only place an element id is hashed.
func KeyOf(id uint64) Key {
	h1 := splitmix64(id)
	return Key{H1: h1, H2: splitmix64(h1) | 1}
}

// locate maps k to its word and to the mask of its k bits inside that word:
// double hashing (Kirsch-Mitzenmacher) mod 64, bit_i = h1 + i*h2 with h2 odd
// so the k positions are distinct; the word is taken from h1 above bit 6.
// Written to stay within the inliner's budget inside Atomic.AddKey, which
// saves a call on every transactional read.
func (p Params) locate(k Key) (word int, mask uint64) {
	for i := uint64(0); i < uint64(p.Hashes); i++ {
		mask |= 1 << ((k.H1 + i*k.H2) & 63)
	}
	return int(k.H1>>6) & (p.Bits>>6 - 1), mask
}

// Filter is a single-owner bloom filter. It is not safe for concurrent use;
// use Atomic for filters read by other threads.
type Filter struct {
	p     Params
	sum   uint64 // summary signature: OR-fold of words onto 64 bits
	words []uint64
}

// NewFilter returns an empty filter with geometry p. It panics on an invalid
// geometry: callers taking one from outside check Params.Validate first.
func NewFilter(p Params) *Filter {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Filter{p: p, words: make([]uint64, p.Words())}
}

// Params returns the filter geometry.
func (f *Filter) Params() Params { return f.p }

// Add inserts id into the filter.
func (f *Filter) Add(id uint64) { f.AddKey(KeyOf(id)) }

// AddKey inserts the element whose key is k.
//
//stm:hotpath
func (f *Filter) AddKey(k Key) {
	w, mask := f.p.locate(k)
	f.words[w] |= mask
	f.sum |= mask
}

// MayContain reports whether id may have been added (false positives
// possible, false negatives impossible).
func (f *Filter) MayContain(id uint64) bool {
	w, mask := f.p.locate(KeyOf(id))
	return f.words[w]&mask == mask
}

// Clear removes all elements.
func (f *Filter) Clear() {
	clear(f.words)
	f.sum = 0
}

// Empty reports whether no bits are set (the summary is the exact fold).
func (f *Filter) Empty() bool { return f.sum == 0 }

// Intersects reports whether f and g share at least one set bit. Both filters
// must have the same geometry.
func (f *Filter) Intersects(g *Filter) bool {
	if f.sum&g.sum == 0 {
		// Summaries are supersets of the word fold: disjoint summaries prove
		// disjoint filters without touching the word arrays.
		return false
	}
	for i, w := range f.words {
		if w&g.words[i] != 0 {
			return true
		}
	}
	return false
}

// CopyFrom makes f an exact copy of g (same geometry required).
func (f *Filter) CopyFrom(g *Filter) {
	copy(f.words, g.words)
	f.sum = g.sum
}

// UnionWith adds every element of g to f (same geometry required). Group
// commit uses it to merge a batch's write signatures into one filter that a
// single invalidation scan can test against.
func (f *Filter) UnionWith(g *Filter) {
	for i, w := range g.words {
		f.words[i] |= w
	}
	f.sum |= g.sum
}

// UnionAtomic adds every element currently in a to f (same geometry
// required). Like Atomic.Snapshot but accumulating, so a batch's read
// signatures can be folded into one compatibility filter without a scratch
// copy per member.
func (f *Filter) UnionAtomic(a *Atomic) {
	for i := range a.words {
		w := a.words[i].Load()
		f.words[i] |= w
		f.sum |= w
	}
}

// Clone returns an independent copy of f.
func (f *Filter) Clone() *Filter {
	c := NewFilter(f.p)
	c.CopyFrom(f)
	return c
}

// PopCount returns the number of set bits — used by tests and by the
// false-conflict ablation to estimate filter load.
func (f *Filter) PopCount() int {
	n := 0
	for _, w := range f.words {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Atomic is a bloom filter whose owner adds bits while other threads
// concurrently intersect against it or reset it is observed. The owner is the
// only writer of bits (via Add) and the only caller of Clear; invalidation
// servers only read.
type Atomic struct {
	p     Params
	words []atomic.Uint64
}

// NewAtomic returns an empty concurrent filter with geometry p.
func NewAtomic(p Params) *Atomic {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Atomic{p: p, words: make([]atomic.Uint64, p.Words())}
}

// Params returns the filter geometry.
func (a *Atomic) Params() Params { return a.p }

// Add inserts id.
func (a *Atomic) Add(id uint64) { a.AddKey(KeyOf(id)) }

// AddKey inserts the element whose key is k. The atomic OR publishes the bits
// with release semantics: once an invalidation server observes them, it also
// observes the read that they describe. An OR whose bits are all set is
// skipped (no write traffic): an earlier OR of this incarnation set them.
//
//stm:hotpath
func (a *Atomic) AddKey(k Key) {
	i, mask := a.p.locate(k)
	if w := &a.words[i]; w.Load()&mask != mask {
		w.Or(mask)
	}
}

// Clear removes all elements. Only the owner may call it, between
// transactions (never while a commit that could observe the filter is in
// flight against the owner's current epoch). A word the owner loads as zero
// is zero (it is the only writer), so it is not stored to: an atomic store is
// a fenced exchange.
//
//stm:hotpath
func (a *Atomic) Clear() {
	for i := range a.words {
		if w := &a.words[i]; w.Load() != 0 {
			w.Store(0)
		}
	}
}

// IntersectsFilter reports whether a and the plain filter g share a set bit.
// It loads only the words of a where g has a bit — for a write signature of
// n elements at most n loads — so it is also the invalidation scan's cheap
// first test. Safe to call concurrently with the owner's Add.
//
//stm:hotpath
func (a *Atomic) IntersectsFilter(g *Filter) bool {
	aw := a.words[:len(g.words)] // one bounds check, not one per word
	for i, w := range g.words {
		if w != 0 && aw[i].Load()&w != 0 {
			return true
		}
	}
	return false
}

// SummaryIntersects reports whether a's summary signature shares a bit with
// sum. A false result proves a full IntersectsFilter against any filter with
// summary sum would also be false; a true result decides nothing.
func (a *Atomic) SummaryIntersects(sum uint64) bool { return a.Summary()&sum != 0 }

// Summary returns the current summary signature, the fold of the words.
// Atomic maintains none (see the package comment), so this loads every word;
// it and SummaryIntersects serve the layer benchmark, not the scan.
func (a *Atomic) Summary() uint64 {
	var s uint64
	for i := range a.words {
		s |= a.words[i].Load()
	}
	return s
}

// MayContain reports whether id may have been added.
func (a *Atomic) MayContain(id uint64) bool {
	i, mask := a.p.locate(KeyOf(id))
	return a.words[i].Load()&mask == mask
}

// Snapshot copies the current contents into dst (same geometry required).
func (a *Atomic) Snapshot(dst *Filter) {
	dst.sum = 0
	for i := range a.words {
		w := a.words[i].Load()
		dst.words[i] = w
		dst.sum |= w
	}
}
