package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/ssrg-vt/rinval/internal/bloom"
)

// varID hands out unique identities for bloom-filter hashing. The RSTM
// implementation hashes memory addresses; hashing a stable counter avoids any
// dependence on Go allocator layout and keeps runs reproducible.
var varID atomic.Uint64

// varNames maps Var ids to the labels given via NewVarNamed, so attribution
// reports and the stmtop dashboard can show "rbtree-root" instead of a raw
// id. Registration is construction-time only; lookups happen off the hot
// path (report building), so a plain RWMutex map suffices.
var (
	varNamesMu sync.RWMutex
	varNames   map[uint64]string
)

// NewVarNamed returns a Var holding initial, labeled as by SetName.
func NewVarNamed(initial any, name string) *Var { return NewVar(initial).SetName(name) }

// SetName labels v for attribution reports and returns it. The label is
// advisory: one map insert, at construction time, and nothing afterwards.
func (v *Var) SetName(name string) *Var {
	varNamesMu.Lock()
	if varNames == nil {
		varNames = make(map[uint64]string)
	}
	varNames[v.id] = name
	varNamesMu.Unlock()
	return v
}

// VarName returns the label registered for id via NewVarNamed, or "" for
// unlabeled Vars.
func VarName(id uint64) string {
	varNamesMu.RLock()
	name := varNames[id]
	varNamesMu.RUnlock()
	return name
}

// Box is the header of one published version of a Var and the first field of
// every cell, so the engines move, compare and publish *Box and never see the
// value behind it. Write-back installs a fresh cell, so two loads returning
// the same *Box are the same version — pointer comparison is NOrec's
// value-based validation, made conservative (a re-written equal value reads as
// a change: an extra abort, never a missed conflict). A cell is private to its
// write set until write-back, immutable afterwards, and of the one type its
// Var's creator uses (stm's cell[T], or this package's anyCell).
type Box struct {
	// epoch is the commit-stream timestamp of the group-commit epoch that
	// installed this cell, stamped by sys.writeBack before publication. Zero
	// under Versions=0, where nothing reads it; the initial cell of a Var is
	// also epoch 0, which every snapshot dominates.
	epoch uint64
}

// anyCell is the cell behind NewVar, Tx.Load, Tx.Store, Peek and Set.
type anyCell struct {
	Box
	v any
}

func newAnyCell(val any) *Box { return &(&anyCell{v: val}).Box }

// anyOf recovers the anyCell whose header is b (offset 0).
func anyOf(b *Box) *anyCell { return (*anyCell)(unsafe.Pointer(b)) }

// Var is one transactional memory location. Create Vars with NewVar, or
// initialize a zero Var in place with InitBox; access them only through a
// transaction (Tx.Load / Tx.Store). The zero value is not usable, and a Var
// must not be copied: its address is its location.
//
// Vars are engine-agnostic: the same Var works under every Algo, but a Var
// must only ever be accessed through a single System at a time — the
// consistency argument hinges on one global timestamp covering all accesses.
type Var struct {
	id uint64
	// key is id's bloom key, hashed once at creation so a read or write
	// publishes its signature bits without rehashing. It depends on no filter
	// geometry, so Vars stay System-agnostic; a System masks key.H1 down to
	// its shard count (Config.Shards) to pick the commit stream owning v.
	key bloom.Key
	val atomic.Pointer[Box]
	// verlock is the TL2 engine's versioned write-lock: bit 0 is the lock
	// bit, the remaining bits hold the version (global-clock value of the
	// last commit that wrote this Var). Unused by the coarse-grained
	// engines, whose consistency is anchored on the global timestamp.
	verlock atomic.Uint64
	// vers is the bounded version history ring under Config.Versions > 0,
	// allocated lazily at this Var's first versioned write-back. nil means
	// every committed cell so far is the head (epoch-0 initial value included),
	// so a snapshot reader can take the head directly.
	vers atomic.Pointer[verRing]
}

// verRing is a Var's bounded history of recent committed cells, newest last.
// Appends happen only under write-back exclusivity (the owning stream's
// timestamp is odd), so writers never race each other; readers race writers
// and validate against w (see versionAt). slots[ℓ%n] holds the cell appended
// as logical entry ℓ; w counts appends, so logical entries w-n..w-1 are the
// ones potentially still resident.
type verRing struct {
	n     uint64
	w     atomic.Uint64
	slots []atomic.Pointer[Box]
}

// appendVersion publishes b (already epoch-stamped) as the Var's newest
// history entry and trims entries no live snapshot reader can need: every
// entry strictly older than the newest entry at or below floor is unlinked so
// the cells become collectable. Called only during write-back, while the
// owning stream's timestamp is odd.
func (v *Var) appendVersion(b *Box, n int, floor uint64) {
	r := v.vers.Load()
	if r == nil {
		// First versioned write-back: seed the ring with the current head so
		// readers whose snapshot predates this append still resolve here
		// instead of falling back.
		//stmlint:ignore hot-path-deep one-time ring allocation per Var, amortized over its whole history
		r = &verRing{n: uint64(n), slots: make([]atomic.Pointer[Box], n)}
		r.slots[0].Store(v.loadBox())
		r.w.Store(1)
		v.vers.Store(r)
	}
	w := r.w.Load()
	r.slots[w%r.n].Store(b)
	r.w.Store(w + 1) // publish: readers treat entries >= w as absent until this store
	// GC sweep: among the surviving entries w+1-n..w, find the newest with
	// epoch <= floor (the one the oldest live reader resolves to) and nil
	// everything strictly older. The just-appended entry is never trimmed:
	// floor is always below the odd epoch stamped on b.
	lo := uint64(0)
	if w+1 > r.n {
		lo = w + 1 - r.n
	}
	keep := lo // nothing at or below floor found => trim nothing
	for j := w; ; j-- {
		e := r.slots[j%r.n].Load()
		if e != nil && e.epoch <= floor {
			keep = j
			break
		}
		if j == lo {
			break
		}
	}
	if keep > lo {
		for j := lo; j < keep; j++ {
			r.slots[j%r.n].Store(nil)
		}
	}
}

// versionAt resolves the newest committed version of v with epoch <= e, the
// snapshot-read rule of DESIGN.md §14. ok=false means the history no longer
// reaches back to e (the writers lapped the ring, or GC trimmed past the
// snapshot) and the caller must fall back to the regular path.
//
//stm:hotpath
func (v *Var) versionAt(e uint64) (*Box, bool) {
	h := v.loadBox()
	if h.epoch <= e {
		// Head fast path: the common case for read-mostly Vars, and the only
		// case ever taken before the Var's first versioned write-back.
		return h, true
	}
	r := v.vers.Load()
	if r == nil {
		// The head is newer than the snapshot but no ring exists yet: the
		// stamping write-back that will seed the ring has published the head
		// before the ring pointer became visible to us. Rare and transient;
		// fall back.
		return nil, false
	}
	w := r.w.Load()
	if w == 0 {
		return nil, false
	}
	// Scan newest to oldest. A candidate at logical index j is trustworthy
	// only if the ring has not wrapped past it while we looked: re-reading
	// w < j+n after the slot load proves slot j%n still held logical entry j
	// (the overwrite for logical j+n is published only after w reaches j+n).
	lo := uint64(0)
	if w > r.n {
		lo = w - r.n
	}
	for j := w - 1; ; j-- {
		b := r.slots[j%r.n].Load()
		if b == nil {
			// Trimmed: every older entry is gone too.
			return nil, false
		}
		if b.epoch <= e {
			if r.w.Load() >= j+r.n {
				return nil, false // lapped while scanning
			}
			return b, true
		}
		if j == lo {
			return nil, false
		}
	}
}

// NewVar returns a Var holding initial.
func NewVar(initial any) *Var { return new(Var).InitBox(newAnyCell(initial)) }

// InitBox makes the zero Var v a Var whose initial version is the cell headed
// by b, and returns v. v may live inside a larger object (stm.InitVar), so the
// object and its Vars are one allocation. It panics on a Var that already has
// an identity: a Var initialized twice would lose the versions already
// published, or the identity readers and write sets know it by.
func (v *Var) InitBox(b *Box) *Var {
	if v.id != 0 {
		panic("core: InitBox on a Var already initialized")
	}
	id := varID.Add(1)
	v.id, v.key = id, bloom.KeyOf(id)
	v.val.Store(b)
	return v
}

// ID returns the Var's bloom-hash identity. Exposed for tests and for the
// simulator's workload models.
func (v *Var) ID() uint64 { return v.id }

// loadBox returns the current published version.
func (v *Var) loadBox() *Box { return v.val.Load() }

// storeBox publishes a new version. Only commit write-back (by the committing
// thread, or by the commit-server on its behalf) may call this, and only
// while the global timestamp is odd.
func (v *Var) storeBox(b *Box) { v.val.Store(b) }

// PeekBox returns the current committed cell, and SetBox replaces it, without
// any transactional protection: for single-threaded setup and inspection (test
// assertions, post-run validation) only, never while transactions are running.
func (v *Var) PeekBox() *Box { return v.loadBox() }
func (v *Var) SetBox(b *Box) { v.storeBox(b) }

// Peek and Set are PeekBox and SetBox through the any API.
func (v *Var) Peek() any   { return anyOf(v.loadBox()).v }
func (v *Var) Set(val any) { v.storeBox(newAnyCell(val)) }
