package core

import (
	"testing"
	"unsafe"

	"github.com/ssrg-vt/rinval/internal/padded"
)

// The requests array ([]slot) is the protocol's shared-memory interface:
// every claim about clients spinning without contending hinges on slot's
// layout. Pin it here (and in stmlint's padding check) so a field added to
// slot without re-balancing the trailing pad fails immediately.
func TestSlotLayout(t *testing.T) {
	var s slot
	if sz := unsafe.Sizeof(s); sz%padded.CacheLineSize != 0 {
		t.Errorf("slot size %d is not a multiple of the %d-byte cache line", sz, padded.CacheLineSize)
	}
	// Each spin field must start on its own line-aligned boundary within the
	// struct, so that array elements (whose stride is the struct size, a line
	// multiple) keep them line-exclusive.
	offsets := map[string]uintptr{
		"state":  unsafe.Offsetof(s.state),
		"status": unsafe.Offsetof(s.status),
		"req":    unsafe.Offsetof(s.req),
		"killer": unsafe.Offsetof(s.killer),
	}
	for name, off := range offsets {
		if off%padded.CacheLineSize != 0 {
			t.Errorf("slot.%s at offset %d, not line-aligned", name, off)
		}
	}
}

// TestSlotArraySpinIsolation verifies the end-to-end property on a real
// array: the state mailboxes (the words clients spin on) of adjacent slots
// never share a cache line.
func TestSlotArraySpinIsolation(t *testing.T) {
	arr := make([]slot, 2)
	a := uintptr(unsafe.Pointer(&arr[0].state))
	b := uintptr(unsafe.Pointer(&arr[1].state))
	if d := b - a; d < padded.CacheLineSize {
		t.Fatalf("adjacent slot.state %d bytes apart, want >= %d", d, padded.CacheLineSize)
	}
}
