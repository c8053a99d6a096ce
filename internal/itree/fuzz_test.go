package itree

import (
	"testing"

	"soteria/internal/ctrenc"
)

// FuzzITreeVerifyAfterUpdate drives a BMT through an arbitrary script of
// updates and attacks and checks the tree's invariants: every updated
// leaf verifies back to its latest contents, the whole tree stays
// self-consistent, and a leaf tampered, swapped or replayed behind the
// tree's back fails verification.
//
// The script is read in (index, arg) byte pairs. arg%8 == 6 swaps leaf
// index with another leaf in the store, arg%8 == 7 replays the contents
// leaf index held before its last update; both check that Verify rejects
// the changed slots and then undo the attack. Every other arg updates
// leaf index.
func FuzzITreeVerifyAfterUpdate(f *testing.F) {
	f.Add(uint64(12), []byte{42, 0xAA, 7, 0x55, 42, 0x01})
	f.Add(uint64(1), []byte{0, 0})
	f.Add(uint64(200), []byte{9, 1, 17, 2, 200, 3, 73, 4, 9, 5})
	f.Add(uint64(40), []byte{3, 1, 3, 2, 3, 7, 9, 0, 3, 0x16, 9, 0x0E})
	f.Fuzz(func(t *testing.T, leaves uint64, script []byte) {
		leaves = leaves%96 + 1
		eng := ctrenc.MustNewEngine([]byte("itree-fuzz"))
		store := newMapStore()
		b, err := NewBMT(eng, store, 0, leaves, leaves*BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		// rejectsAt checks that leaf i fails verification while the store
		// holds bad in its slot, then restores the slot's good contents.
		rejectsAt := func(op string, i uint64, bad, good [BlockSize]byte) {
			store.m[i*BlockSize] = bad
			if _, err := b.Verify(i); err == nil {
				t.Fatalf("%s leaf %d still verifies", op, i)
			}
			store.m[i*BlockSize] = good
		}

		last := map[uint64][BlockSize]byte{}
		prev := map[uint64][BlockSize]byte{}
		for i := 0; i+1 < len(script); i += 2 {
			idx := uint64(script[i]) % leaves
			arg := script[i+1]
			switch arg % 8 {
			case 6:
				other := (idx + 1 + uint64(arg>>3)) % leaves
				x, y := store.m[idx*BlockSize], store.m[other*BlockSize]
				if other != idx && x != y {
					rejectsAt("swapped", idx, y, x)
					rejectsAt("swapped", other, x, y)
				}
			case 7:
				if old, ok := prev[idx]; ok && old != last[idx] {
					rejectsAt("replayed", idx, old, last[idx])
				}
			default:
				var line [BlockSize]byte
				line[0] = arg
				line[1] = byte(i)
				prev[idx] = store.m[idx*BlockSize]
				if err := b.Update(idx, &line); err != nil {
					t.Fatalf("Update(%d): %v", idx, err)
				}
				last[idx] = line
			}
		}

		for idx, want := range last {
			got, err := b.Verify(idx)
			if err != nil {
				t.Fatalf("Verify(%d) after update: %v", idx, err)
			}
			if got != want {
				t.Fatalf("Verify(%d) returned stale contents\n got %x\nwant %x", idx, got[:8], want[:8])
			}
		}
		if err := b.VerifyAll(); err != nil {
			t.Fatalf("tree inconsistent after update script: %v", err)
		}

		// Tamper with the lowest updated leaf (or leaf 0 when the script
		// was empty) directly in storage: verification must now fail.
		victim, found := uint64(0), false
		for idx := range last {
			if !found || idx < victim {
				victim, found = idx, true
			}
		}
		raw, err := store.ReadLine(victim * BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		raw[0] ^= 0xFF
		store.WriteLine(victim*BlockSize, &raw)
		if _, err := b.Verify(victim); err == nil {
			t.Fatalf("tampered leaf %d still verifies", victim)
		}
	})
}
