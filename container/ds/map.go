package ds

import "github.com/ssrg-vt/rinval/stm"

// Map is a transactional hash map with a fixed bucket array. Each bucket is
// one Var holding an immutable slice of entries, replaced copy-on-write by
// inserts and deletes; each entry holds its value in a Var of its own, so
// updating a present key is one store, and keys that share a bucket conflict
// only over its membership. A lookup reads membership through the bucket, so a
// transaction that reached an entry before a concurrent delete (or re-insert)
// fails validation instead of writing to the unlinked entry.
type Map[K comparable, V any] struct {
	buckets []*stm.Var[[]*mapEntry[K, V]]
	size    *stm.Var[int]
	hash    func(K) uint64
}

// mapEntry is held by pointer, so a bucket's copy-on-write never copies val.
type mapEntry[K comparable, V any] struct {
	key K
	val stm.Var[V]
}

// NewMap returns a map with nbuckets chains. hash must be deterministic; use
// HashInt / HashString for common key types.
func NewMap[K comparable, V any](nbuckets int, hash func(K) uint64) *Map[K, V] {
	if nbuckets < 1 {
		nbuckets = 1
	}
	m := &Map[K, V]{
		buckets: make([]*stm.Var[[]*mapEntry[K, V]], nbuckets),
		size:    stm.NewVar(0),
		hash:    hash,
	}
	for i := range m.buckets {
		m.buckets[i] = stm.NewVar[[]*mapEntry[K, V]](nil)
	}
	return m
}

func (m *Map[K, V]) bucket(k K) *stm.Var[[]*mapEntry[K, V]] {
	return m.buckets[m.hash(k)%uint64(len(m.buckets))]
}

// entry returns k's entry in the transaction's view of its bucket, or nil.
func (m *Map[K, V]) entry(tx *stm.Tx, k K) *mapEntry[K, V] {
	for _, e := range m.bucket(k).Load(tx) {
		if e.key == k {
			return e
		}
	}
	return nil
}

// Get returns the value stored for k.
func (m *Map[K, V]) Get(tx *stm.Tx, k K) (V, bool) {
	if e := m.entry(tx, k); e != nil {
		return e.val.Load(tx), true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present. It reads k's bucket only.
func (m *Map[K, V]) Contains(tx *stm.Tx, k K) bool { return m.entry(tx, k) != nil }

// Put stores k->v, returning true if k was absent. A present key's update is
// one store to its value Var; an absent key's insert replaces the bucket.
func (m *Map[K, V]) Put(tx *stm.Tx, k K, v V) bool {
	b := m.bucket(k)
	old := b.Load(tx)
	for _, e := range old {
		if e.key == k {
			e.val.Store(tx, v)
			return false
		}
	}
	e := &mapEntry[K, V]{key: k}
	stm.InitVar(&e.val, v)
	next := make([]*mapEntry[K, V], len(old)+1)
	copy(next, old)
	next[len(old)] = e
	b.Store(tx, next)
	m.size.Store(tx, m.size.Load(tx)+1)
	return true
}

// PutIfAbsent stores k->v only when k is absent; it returns the value now
// mapped and whether this call inserted it. This is genome's dedup
// primitive.
func (m *Map[K, V]) PutIfAbsent(tx *stm.Tx, k K, v V) (V, bool) {
	if cur, ok := m.Get(tx, k); ok {
		return cur, false
	}
	m.Put(tx, k, v)
	return v, true
}

// Delete removes k, returning true if present.
func (m *Map[K, V]) Delete(tx *stm.Tx, k K) bool {
	b := m.bucket(k)
	old := b.Load(tx)
	for i, e := range old {
		if e.key == k {
			next := make([]*mapEntry[K, V], 0, len(old)-1)
			next = append(next, old[:i]...)
			next = append(next, old[i+1:]...)
			b.Store(tx, next)
			m.size.Store(tx, m.size.Load(tx)-1)
			return true
		}
	}
	return false
}

// Size returns the element count.
func (m *Map[K, V]) Size(tx *stm.Tx) int { return m.size.Load(tx) }

// ForEachQuiescent visits every entry without a transaction (tests and
// post-run validation only).
func (m *Map[K, V]) ForEachQuiescent(f func(K, V)) {
	for _, b := range m.buckets {
		for _, e := range b.Peek() {
			f(e.key, e.val.Peek())
		}
	}
}

// HashInt hashes an int key (SplitMix64 finalizer).
func HashInt(k int) uint64 {
	x := uint64(k)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashString hashes a string key (FNV-1a).
func HashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
