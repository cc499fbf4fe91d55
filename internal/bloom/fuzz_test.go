package bloom

import (
	"encoding/binary"
	"testing"
)

// FuzzNoFalseNegatives feeds arbitrary byte strings interpreted as element
// id lists and asserts the fundamental bloom property: an added element is
// always reported as possibly present, in both the plain and atomic
// variants, and the atomic filter always intersects a plain filter sharing
// an element. Every id also goes through the one-word layout contract
// (checkOneWordAdd) for every geometry of sweepParams.
func FuzzNoFalseNegatives(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := Params{Bits: 256, Hashes: 2}
		plain := NewFilter(p)
		atomic := NewAtomic(p)
		var ids []uint64
		for len(data) >= 8 {
			id := binary.LittleEndian.Uint64(data)
			data = data[8:]
			ids = append(ids, id)
			plain.Add(id)
			atomic.Add(id)
		}
		for _, id := range ids {
			for _, g := range sweepParams() {
				checkOneWordAdd(t, g, id)
			}
			if !plain.MayContain(id) {
				t.Fatalf("plain false negative for %d", id)
			}
			if !atomic.MayContain(id) {
				t.Fatalf("atomic false negative for %d", id)
			}
			single := NewFilter(p)
			single.Add(id)
			if !plain.Intersects(single) {
				t.Fatalf("plain intersect missed %d", id)
			}
			if !atomic.IntersectsFilter(single) {
				t.Fatalf("atomic intersect missed %d", id)
			}
		}
		// Snapshot must be equivalent to the plain filter built the same way.
		snap := NewFilter(p)
		atomic.Snapshot(snap)
		for _, id := range ids {
			if !snap.MayContain(id) {
				t.Fatalf("snapshot lost %d", id)
			}
		}
	})
}
