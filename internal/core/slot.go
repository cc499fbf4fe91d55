package core

import (
	"github.com/ssrg-vt/rinval/internal/bloom"
	"github.com/ssrg-vt/rinval/internal/padded"
)

// Transaction status bits, packed into the low bits of a slot's status word.
const (
	txInactive uint64 = 0 // no transaction in flight in this slot
	txAlive    uint64 = 1 // transaction running (or awaiting its commit reply)
	txInvalid  uint64 = 2 // doomed by a committer's invalidation pass
)

const (
	statusBits uint64 = 3 // mask for the status field
	epochShift        = 2 // epoch occupies the remaining bits
)

// statusWord packs (epoch, status).
func statusWord(epoch, status uint64) uint64 { return epoch<<epochShift | status }

// wordStatus extracts the status field.
func wordStatus(w uint64) uint64 { return w & statusBits }

// Request states for the client/commit-server mailbox (Figure 5).
const (
	reqIdle      uint32 = iota // no request outstanding
	reqPending                 // client published a commit request
	reqCommitted               // server reply: committed
	reqAborted                 // server reply: invalidated, roll back
)

// commitReq is the payload of a commit request: everything the commit-server
// needs to execute the commit on the client's behalf (the paper's Figure 5
// passes the write-set and its bloom signature through the requests array).
// The client builds it privately and publishes it with a single padded
// pointer store; the server treats it as read-only.
type commitReq struct {
	ws *writeSet
	// writes/touched are shard bitmasks (bit j = stream j): the shards the
	// write set lands in, and those plus every shard the transaction read
	// from. The epoch that retires the request runs over exactly the touched
	// streams, led by the lowest one's commit-server: one stream batches with
	// its neighbours, more make it a cross-shard request led solo. Both are
	// 1<<0 when Shards == 1. They live here, not on the slot: commitReq is a
	// per-commit heap value, so extending it cannot disturb the slot's
	// cache-line layout.
	writes  uint64
	touched uint64
}

// slot is one entry of the cache-aligned requests array. Every hot field is
// padded onto its own cache line so a client spinning on its reply line never
// contends with its neighbours or with servers touching other fields, and the
// struct as a whole is a multiple of the cache line so adjacent slots in the
// array never share one (stmlint's padding check and sizeof_test.go enforce
// both).
type slot struct {
	// state is the request mailbox the client spins on (PENDING -> reply).
	state padded.Uint32
	// status packs the slot's transaction epoch and liveness/invalidation
	// status. The owner stores begin/end transitions; servers may only CAS
	// alive->invalid on the exact word they observed (epoch guard).
	status padded.Uint64
	// req carries the published commit request while state is PENDING.
	req padded.Pointer[commitReq]
	// killer is the attribution mailbox: a doomer stores its killDesc here
	// immediately before the doom CAS, and the victim reads it back on its
	// abort path (nil outside Config.Attribution; cleared by the owner at
	// begin, while the slot is not alive). Padded like the other hot cells —
	// a committer's store must not collide with the victim's spin lines.
	killer padded.Pointer[killDesc]
	// readBF is the transaction's read signature, written by the owner and
	// scanned concurrently by committers/invalidation-servers. The pointer
	// and the fields below it are written once at System construction and
	// read-only afterwards, so sharing a line among them is harmless.
	readBF *bloom.Atomic
	// invalServer is the invalidation-server partition this slot belongs to
	// (RInvalV2/V3); fixed at System construction.
	invalServer int
	// selfMask is the singleton slot mask {this slot}, fixed at System
	// construction — the skip set an inline committer (InvalSTM) passes to
	// the invalidation scan.
	selfMask slotMask
	// Round the cold tail (8 + 8 + 24 bytes) up to a whole cache line so
	// []slot keeps every element's spin lines exclusive.
	_ [padded.CacheLineSize - (8+8+24)%padded.CacheLineSize]byte
}

// aliveWord loads the status word and reports whether it denotes a live
// transaction.
func (s *slot) aliveWord() (uint64, bool) {
	w := s.status.Load()
	return w, wordStatus(w) == txAlive
}

// tryInvalidate dooms the transaction incarnation described by w. It returns
// false if the slot moved on (commit finished, new epoch, already doomed) —
// in which case the doom is no longer this committer's responsibility.
func (s *slot) tryInvalidate(w uint64) bool {
	return s.status.CompareAndSwap(w, (w&^statusBits)|txInvalid)
}
