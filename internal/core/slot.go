package core

import (
	"sync/atomic"

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

// Request codes for the client/commit-server mailbox (Figure 5): the low two
// bits of a slot's state word. Above them is the request's sequence number,
// bumped by the client with every publish, so a word names one request.
const (
	reqIdle      uint64 = iota // no request outstanding
	reqPending                 // client published a commit request
	reqCommitted               // driver's reply: committed
	reqAborted                 // driver's reply: invalidated, roll back

	reqCodeMask uint64 = 3
)

// reqLine is the payload of a commit request, alone on its cache line: what
// an epoch driver needs to execute the commit on the client's behalf (the
// paper's Figure 5 passes the write-set and its bloom signature through the
// requests array). ws is the owning thread's, fixed from Register to Close; the
// client stores the masks before the PENDING word, then waits for the reply.
type reqLine struct {
	_  [padded.CacheLineSize - 24]byte
	ws *writeSet
	// writes/touched are shard bitmasks (bit j = stream j): the shards the
	// write set lands in, and those plus every shard the transaction read
	// from. The epoch that retires the request runs over exactly the touched
	// streams, led by the lowest one's commit-server: one stream batches with
	// its neighbours, more make it a cross-shard request led solo. Both are
	// 1<<0 when Shards == 1.
	writes, touched atomic.Uint64
	_               [padded.CacheLineSize]byte
}

// slot is one entry of the cache-aligned requests array. Every hot field is
// padded onto its own cache line so a client spinning on its reply line never
// contends with its neighbours or with servers touching other fields, and the
// struct as a whole is a multiple of the cache line so adjacent slots in the
// array never share one (stmlint's padding check and sizeof_test.go enforce
// both).
type slot struct {
	// state is the request mailbox word the client spins on: the request's
	// sequence number above a request code (PENDING -> reply).
	state padded.Uint64
	// status packs the slot's transaction epoch and liveness/invalidation
	// status. The owner stores begin/end transitions; servers may only CAS
	// alive->invalid on the exact word they observed (epoch guard).
	status padded.Uint64
	// req carries the published commit request while state is PENDING.
	req reqLine
	// killer is the attribution mailbox: a doomer stores its killDesc here
	// immediately before the doom CAS, and the victim reads it back on its
	// abort path (nil outside Config.Attribution; cleared by the owner at
	// begin, while the slot is not alive). Padded like the other hot cells —
	// a committer's store must not collide with the victim's spin lines.
	killer padded.Pointer[killDesc]
	// readBF is the transaction's read signature, written by the owner (one
	// test-then-OR per read, no summary word) and scanned concurrently by
	// committers/invalidation-servers (conflictWord). The pointer and the
	// fields below it are written once at System construction and read-only
	// afterwards, so sharing a line among them is harmless.
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

// conflictWord reports whether the slot's live transaction may have read
// something bf covers, and returns the status word naming that incarnation.
// The first intersection is the cheap reject: it loads only the read-filter
// words bf occupies, and most slots stop there without touching the status
// line. The deciding intersection reloads them after the status word, so a
// doom CAS on the returned word can only name the incarnation whose bits
// were seen — bits of an earlier one were cleared before its ALIVE store.
//
//stm:hotpath
func (s *slot) conflictWord(bf *bloom.Filter) (uint64, bool) {
	if !s.readBF.IntersectsFilter(bf) {
		return 0, false
	}
	w, alive := s.aliveWord()
	return w, alive && s.readBF.IntersectsFilter(bf)
}

// publish posts the owner's commit request — the masks, then the next sequence
// number with PENDING — and returns that word, which the reply will carry too.
//
//stm:hotpath
func (s *slot) publish(writes, touched uint64) uint64 {
	s.req.writes.Store(writes)
	s.req.touched.Store(touched)
	w := (s.state.Load() | reqCodeMask) + 1 + reqPending // next sequence number
	s.state.Store(w)
	return w
}

// pendingTouched returns the touched mask of the request named by w, a state
// word the caller loaded before this call, if w is PENDING and still the slot's
// word once the mask has been read. Past a word that moved on, the mask may be
// the owner's next request's, not yet PENDING, which would then be served twice.
//
//stm:hotpath
func (s *slot) pendingTouched(w uint64) (touched uint64, ok bool) {
	if w&reqCodeMask != reqPending {
		return 0, false
	}
	touched = s.req.touched.Load()
	return touched, s.state.Load() == w
}

// reply answers the admitted request with code. Its word is frozen at PENDING
// from admission to here (only a holder of every touched stream answers), so
// one add turns it into the reply without first loading the client's line.
//
//stm:hotpath
func (s *slot) reply(code uint64) { s.state.Add(code - reqPending) }

// tryInvalidate dooms the transaction incarnation described by w. It returns
// false if the slot moved on (commit finished, new epoch, already doomed) —
// in which case the doom is no longer this committer's responsibility.
func (s *slot) tryInvalidate(w uint64) bool {
	return s.status.CompareAndSwap(w, (w&^statusBits)|txInvalid)
}
