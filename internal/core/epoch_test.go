package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"
)

// Tests for the one epoch routine (shardServer.epoch, DESIGN.md §11), driven
// without servers: requests are hand-posted and the lead stream's serveEpoch
// is called directly, over every variant and mask width. Four streams, one
// invalidation partition each for V2/V3 (the paper's layout, built at four
// Ps); with no server goroutines the driver scans every written partition
// itself unless a test holds its lock.

// epochMasks are the touched/written stream masks per mask width. The lead
// stream is never stream 0 alone, and the wider masks keep one touched stream
// read-only in the middle.
var epochMasks = []struct{ touched, writes uint64 }{
	{0b0010, 0b0010},
	{0b0110, 0b0100},
	{0b1011, 0b1001},
}

func newEpochSystem(t *testing.T, algo Algo) *System {
	t.Helper()
	return atFourPs(t, newSystem, Config{Algo: algo, MaxThreads: 4, Shards: 4, InvalServers: 4,
		StepsAhead: 2, Versions: 4, Latency: true})
}

// postMasked publishes a request in th's slot that writes one fresh Var in
// every stream of writes and claims the given touched mask.
func postMasked(t *testing.T, s *System, th *Thread, touched, writes uint64, val int) (*slot, []*Var) {
	t.Helper()
	var vars []*Var
	for m := writes; m != 0; m &= m - 1 {
		vars = append(vars, varInShard(t, s, bits.TrailingZeros64(m), 0))
	}
	sl := postPending(s, th, vars[0], val)
	for _, v := range vars[1:] {
		sl.req.ws.put(v, newAnyCell(val))
	}
	sl.req.touched.Store(touched)
	sl.req.writes.Store(writes)
	return sl, vars
}

func streamTimestamps(s *System) string {
	var b strings.Builder
	for j := range s.streams {
		fmt.Fprintf(&b, "%d ", s.streams[j].ts.Load())
	}
	return b.String()
}

func serverPhaseCounts(s *System) map[string]uint64 {
	out := map[string]uint64{}
	for _, p := range s.LatencyReport().Server {
		out[p.Phase] = p.Count
	}
	return out
}

func forEachEpochShape(t *testing.T, f func(t *testing.T, algo Algo, touched, writes uint64)) {
	for _, algo := range rinvalAlgos {
		for _, m := range epochMasks {
			algo, m := algo, m
			t.Run(fmt.Sprintf("%s/bits=%d", algo, bits.OnesCount64(m.touched)), func(t *testing.T) {
				f(t, algo, m.touched, m.writes)
			})
		}
	}
}

// TestEpochSkipsStaleCandidate: whatever the mask width, the collection pass
// re-reads a candidate under the locks, so one that was answered, retracted or
// replaced between its discovery and the lock acquisition is left alone — no
// second reply, no timestamp transition, no lock left behind.
func TestEpochSkipsStaleCandidate(t *testing.T) {
	forEachEpochShape(t, func(t *testing.T, algo Algo, touched, writes uint64) {
		s := newEpochSystem(t, algo)
		th := s.MustRegister()
		sl, _ := postMasked(t, s, th, touched, writes, 7)
		lead := s.rinval.srv[bits.TrailingZeros64(touched)]
		pending := sl.state.Load()
		stale := []struct {
			name  string
			apply func()
		}{
			{"answered", func() { sl.reply(reqAborted) }},
			{"retracted", func() { sl.state.Store(pending &^ reqCodeMask) }},
			{"replaced", func() { sl.publish(1, 1<<3) }},
		}
		for _, c := range stale {
			c.apply()
			state := sl.state.Load()
			if lead.serveEpoch(touched, th.idx) {
				t.Fatalf("%s: epoch replied to a stale candidate", c.name)
			}
			if got := sl.state.Load(); got != state {
				t.Fatalf("%s: slot state %d -> %d", c.name, state, got)
			}
			if got := streamTimestamps(s); got != "0 0 0 0 " {
				t.Fatalf("%s: timestamps moved: %s", c.name, got)
			}
		}
		// The same request, still pending under its own mask, is served.
		sl.publish(writes, touched)
		if !lead.serveEpoch(touched, th.idx) || sl.state.Load()&reqCodeMask != reqCommitted {
			t.Fatalf("live candidate not committed (state %d)", sl.state.Load())
		}
		if got := lead.stats(); got.Epochs != 1 || got.Commits != 1 {
			t.Fatalf("Epochs=%d Commits=%d after one served request, want 1/1", got.Epochs, got.Commits)
		}
		for j := range s.streams {
			if s.streams[j].owner.Load() != 0 {
				t.Fatalf("stream %d left locked", j)
			}
		}
		settle(s, th.idx, sl)
		th.Close()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMailboxAdmitsOnlyTheWordItRead replays, step by step, the interleaving
// that used to serve one write set twice with Shards > 1: a driver of stream 0
// reads slot's PENDING word for request N (another stream's), N is answered
// there, and the owner posts request N+1 — masks first, PENDING second — now
// touching stream 0. Whatever point of that the driver's mask load falls on,
// the word it read first is no longer the slot's word, so it is refused; the
// current word is admitted with the current mask, and a reply keeps its
// sequence number.
func TestMailboxAdmitsOnlyTheWordItRead(t *testing.T) {
	var sl slot
	if _, ok := sl.pendingTouched(sl.state.Load()); ok {
		t.Fatal("idle slot admitted")
	}
	n := sl.publish(0b10, 0b10) // request N: stream 1's
	if touched, ok := sl.pendingTouched(n); !ok || touched != 0b10 {
		t.Fatalf("current word: touched=%b ok=%v, want 10 true", touched, ok)
	}
	sl.reply(reqCommitted)
	if got := sl.state.Load(); got != n^reqPending^reqCommitted {
		t.Fatalf("reply word %#x, want request %#x with COMMITTED", got, n)
	}
	if _, ok := sl.pendingTouched(n); ok {
		t.Fatal("stale word admitted after the reply")
	}
	sl.state.Store(n &^ reqCodeMask) // the owner consumed the reply
	// N+1's masks are on the line, its PENDING word is not yet.
	sl.req.writes.Store(0b01)
	sl.req.touched.Store(0b01)
	if _, ok := sl.pendingTouched(n); ok {
		t.Fatal("stale word admitted over the next request's masks")
	}
	n1 := sl.publish(0b01, 0b01)
	if n1 == n || n1&reqCodeMask != reqPending {
		t.Fatalf("publish reused word %#x (was %#x)", n1, n)
	}
	if _, ok := sl.pendingTouched(n); ok {
		t.Fatal("stale word admitted once the next request was PENDING")
	}
	if touched, ok := sl.pendingTouched(n1); !ok || touched != 0b01 {
		t.Fatalf("next request: touched=%b ok=%v, want 1 true", touched, ok)
	}
	if _, ok := sl.pendingTouched(n1 ^ reqPending ^ reqAborted); ok {
		t.Fatal("a reply word admitted as a request")
	}
}

// TestEpochStreamsAndPhases runs one epoch per shape and checks what it did to
// each stream and which phases it recorded: written streams made exactly one
// odd/even transition and their write-back ran inside the odd window (the
// version stamp is the stream's odd timestamp); touched read-only streams were
// locked and caught up but never went odd and received no descriptor;
// multi-stream epochs record lock-wait (and drain with invalidation-servers),
// single-stream ones inval-wait, never both. With invalidation-servers the
// shape runs twice: with every partition free, where the driver scans each
// written stream's partition itself after the reply (one "scan" sample per
// written stream, the partition caught up), and with every partition held as
// by a server in mid-scan, where it leaves them alone (no "scan", the
// partition one commit behind).
func TestEpochStreamsAndPhases(t *testing.T) {
	forEachEpochShape(t, func(t *testing.T, algo Algo, touched, writes uint64) {
		if algo == RInvalV1 {
			epochStreamsAndPhases(t, algo, touched, writes, false)
			return
		}
		t.Run("partitions-free", func(t *testing.T) { epochStreamsAndPhases(t, algo, touched, writes, false) })
		t.Run("partitions-held", func(t *testing.T) { epochStreamsAndPhases(t, algo, touched, writes, true) })
	})
}

func epochStreamsAndPhases(t *testing.T, algo Algo, touched, writes uint64, held bool) {
	s := newEpochSystem(t, algo)
	eng := s.rinval
	if held {
		for j := range s.streams {
			if !s.tryLockPartition(j, 0) {
				t.Fatalf("stream %d: fresh partition lock not free", j)
			}
		}
	}
	th := s.MustRegister()
	sl, vars := postMasked(t, s, th, touched, writes, 7)
	lead := eng.srv[bits.TrailingZeros64(touched)]
	if !lead.serveEpoch(touched, th.idx) || sl.state.Load()&reqCodeMask != reqCommitted {
		t.Fatalf("request not committed (state %d)", sl.state.Load())
	}
	for j := range s.streams {
		st := &s.streams[j]
		want := uint64(0)
		if writes&(1<<uint(j)) != 0 {
			want = 2
		}
		if got := st.ts.Load(); got != want {
			t.Errorf("stream %d timestamp = %d, want %d (written mask %04b)", j, got, want, writes)
		}
		if st.owner.Load() != 0 {
			t.Errorf("stream %d left locked", j)
		}
		var d *commitDesc
		if len(st.ring) > 0 {
			d = st.ring[0].Load()
		}
		if wantDesc := s.nInvalPerShard > 0 && want == 2; (d != nil) != wantDesc {
			t.Errorf("stream %d descriptor present = %v, want %v", j, d != nil, wantDesc)
		} else if d != nil && !(d.members[0] == 1<<uint(th.idx) && d.bf.MayContain(vars[0].id)) {
			t.Errorf("stream %d descriptor does not carry the batch (members %b)", j, d.members)
		}
		if s.nInvalPerShard > 0 {
			wantTS, wantLock := want, uint32(0)
			if held {
				wantTS, wantLock = 0, 1
			}
			if got := st.invalTS[0].Load(); got != wantTS {
				t.Errorf("stream %d invalTS = %d, want %d", j, got, wantTS)
			}
			if got := st.partOwner[0].Load(); got != wantLock {
				t.Errorf("stream %d partition lock = %d, want %d", j, got, wantLock)
			}
		}
	}
	for _, v := range vars {
		if b := v.loadBox(); v.Peek() != 7 || b.epoch != 1 {
			t.Errorf("var in stream %d = %v stamped %d, want 7 stamped 1 (odd window)", s.shardOf(v), v.Peek(), b.epoch)
		}
	}

	want := map[string]uint64{"collect": 1, "write-back": 1, "reply": 1}
	multi, remote := touched&(touched-1) != 0, s.nInvalPerShard > 0
	if multi {
		want["lock-wait"] = 1
	}
	switch {
	case !remote:
		want["scan"] = 1 // V1's inline scan
	case multi:
		want["drain"] = 1
	default:
		want["inval-wait"] = 1
	}
	if remote && !held {
		want["scan"] = uint64(bits.OnesCount64(writes))
	}
	if got := serverPhaseCounts(s); !reflect.DeepEqual(got, want) {
		t.Errorf("recorded phase samples %v, want %v", got, want)
	}
	if held {
		for j := range s.streams {
			s.unlockPartition(j, 0)
		}
	}
	settle(s, th.idx, sl)
	th.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochOddWindowsNest: a multi-stream epoch raises its written streams odd
// in ascending order and lowers them in descending order, so the lowest
// written stream's odd window encloses the highest's. An observer racing a
// train of epochs that write streams 0 and 3 must therefore never see stream
// 3 odd between two equal even reads of stream 0, and captureSnapshot — whose
// double collect rests on exactly that nesting — must never return a cut with
// the two timestamps apart (every epoch moves both).
func TestEpochOddWindowsNest(t *testing.T) {
	const epochs = 400
	const touched, writes, lo, hi = 0b1011, 0b1001, 0, 3
	for _, algo := range rinvalAlgos {
		t.Run(algo.String(), func(t *testing.T) {
			s := newEpochSystem(t, algo)
			th := s.MustRegister()
			lead := s.rinval.srv[lo]
			stop, torn := make(chan struct{}), make(chan string, 1)
			go func() {
				defer close(torn)
				snap := make([]uint64, len(s.streams))
				for {
					select {
					case <-stop:
						return
					default:
					}
					before := s.streams[lo].ts.Load()
					mid := s.streams[hi].ts.Load()
					if after := s.streams[lo].ts.Load(); mid&1 != 0 && before&1 == 0 && before == after {
						torn <- fmt.Sprintf("stream %d odd (%d) while stream %d stayed even (%d)", hi, mid, lo, before)
						return
					}
					if s.captureSnapshot(snap) && snap[lo] != snap[hi] {
						torn <- fmt.Sprintf("snapshot cut straddles an epoch: %v", snap)
						return
					}
				}
			}()
			for i := 0; i < epochs; i++ {
				sl, _ := postMasked(t, s, th, touched, writes, i)
				if !lead.serveEpoch(touched, th.idx) || sl.state.Load()&reqCodeMask != reqCommitted {
					t.Fatalf("epoch %d: request not committed (state %d)", i, sl.state.Load())
				}
				settle(s, th.idx, sl)
			}
			close(stop)
			if msg, ok := <-torn; ok {
				t.Fatal(msg)
			}
			if got := streamTimestamps(s); got != fmt.Sprintf("%d 0 0 %d ", 2*epochs, 2*epochs) {
				t.Fatalf("timestamps after %d epochs: %s", epochs, got)
			}
			th.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
