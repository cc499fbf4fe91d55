package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"github.com/ssrg-vt/rinval/internal/stamp"
)

// The host reference.
//
// The reference host's speed for allocation- and atomics-heavy code drifts
// by ±20 % over tens of minutes, the same way for every engine (README.md,
// "Noise"). A steady pure-ALU kernel does not see that drift, so the
// reference is a transaction-shaped kernel: a 2-load/2-store transfer on a
// 40-line sequence-lock STM kept in this file — boxed values, atomic
// pointers, a closure per body, a Gosched per transaction. One 100 ms slice
// of it runs before every cell, on as many goroutines as the workload has
// clients, and the time-based end-to-end metrics are reported at the
// reference's nominal speed: divided (or multiplied) by the ratio of the
// run's median reference rate to refNominal.
//
// This file shares nothing with the library and must stay as it is: a change
// here rescales every end-to-end number ever reported.

// refNominal is the reference's rate on the reference host on an ordinary
// day, in transactions per second, by number of clients. It only fixes the
// scale, so that the reported numbers read as that host's own. (Two clients
// are slower than one: each transaction yields, and the yields contend.)
var refNominal = map[int]float64{1: 3.5e6, 2: 2.2e6}

type refBox struct{ v any }

type refVar struct{ p atomic.Pointer[refBox] }

type refWrite struct {
	v   *refVar
	val any
}

// refSTM is one client's private STM: value log, write buffer, sequence lock.
type refSTM struct {
	seq    atomic.Uint64
	reads  []*refBox
	writes []refWrite
}

func (s *refSTM) load(v *refVar) any {
	b := v.p.Load()
	s.reads = append(s.reads, b)
	return b.v
}

func (s *refSTM) store(v *refVar, val any) { s.writes = append(s.writes, refWrite{v, val}) }

func (s *refSTM) atomically(body func(*refSTM)) {
	s.reads, s.writes = s.reads[:0], s.writes[:0]
	snap := s.seq.Load()
	body(s)
	s.seq.CompareAndSwap(snap, snap+1)
	for _, w := range s.writes {
		w.v.p.Store(&refBox{w.val})
	}
	s.seq.Store(snap + 2)
	runtime.Gosched()
}

// refClient is one goroutine's share of the reference: its own STM, its own
// 1024 accounts, its own generator.
type refClient struct {
	stm      refSTM
	accounts []*refVar
	rng      *stamp.Rand
}

func newRefClient(i int) *refClient {
	c := &refClient{rng: stamp.NewRand(0x5eed, uint64(i))}
	for a := 0; a < bankAccounts; a++ {
		v := &refVar{}
		v.p.Store(&refBox{bankInitial})
		c.accounts = append(c.accounts, v)
	}
	return c
}

// run transfers for d and returns transactions per second.
func (c *refClient) run(d time.Duration) float64 {
	var from, to *refVar
	var amount int
	body := func(s *refSTM) {
		f := s.load(from).(int)
		t := s.load(to).(int)
		s.store(from, f-amount)
		s.store(to, t+amount)
	}
	n, t0 := 0, now()
	for {
		for i := 0; i < batchTx; i++ {
			from, to = c.accounts[c.rng.Intn(bankAccounts)], c.accounts[c.rng.Intn(bankAccounts)]
			amount = 1 + c.rng.Intn(10)
			c.stm.atomically(body)
		}
		n += batchTx
		if t := now() - t0; t >= int64(d) {
			return float64(n) / time.Duration(t).Seconds()
		}
	}
}

// hostRef collects one workload's reference slices.
type hostRef struct {
	clients []*refClient
	rates   []float64 // summed over the clients, one per slice
}

func newHostRef(clients int) *hostRef {
	h := &hostRef{}
	for i := 0; i < clients; i++ {
		h.clients = append(h.clients, newRefClient(i))
	}
	return h
}

// slice runs the reference for d on every client at once.
func (h *hostRef) slice(d time.Duration) {
	rates := make(chan float64)
	for _, c := range h.clients {
		go func() { rates <- c.run(d) }()
	}
	total := 0.0
	for range h.clients {
		total += <-rates
	}
	h.rates = append(h.rates, total)
}

// speed is the host's speed over the run as a share of nominal: 1.1 means
// the reference ran 10 % faster than refNominal.
func (h *hostRef) speed() float64 {
	return median(h.rates) / refNominal[len(h.clients)]
}
