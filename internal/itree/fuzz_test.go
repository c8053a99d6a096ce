package itree

import (
	"bytes"
	"encoding/binary"
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

// FuzzNodeLineMatchesNode runs one op script over a Node and over its
// stored form, a NodeLine, from the same starting state (counters taken
// from init eight bytes at a time, masked to CounterMask; the MAC from
// mac), and demands that after every op the line equals the node's
// Serialize() and that each 7-byte field, read byte by byte, and Counter
// hold the node's counter. Every script byte increments slot op%8; a
// counter at CounterMask wraps to zero on both sides.
func FuzzNodeLineMatchesNode(f *testing.F) {
	f.Add([]byte{}, uint64(0), []byte{0, 1, 7, 7, 3})
	f.Add(bytes.Repeat([]byte{0xFF}, 64), ^uint64(0), []byte{0, 2, 4, 6, 0, 8, 15})
	f.Add([]byte{0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x00}, uint64(42), []byte{0, 0, 0})
	f.Fuzz(func(t *testing.T, init []byte, mac uint64, script []byte) {
		n := Node{MAC: mac}
		for i := range n.Counters {
			var w [8]byte
			if len(init) > i*8 {
				copy(w[:], init[i*8:])
			}
			n.Counters[i] = binary.LittleEndian.Uint64(w[:]) & CounterMask
		}
		l := NodeLine(n.Serialize())
		check := func(step int) {
			t.Helper()
			if [BlockSize]byte(l) != n.Serialize() {
				t.Fatalf("step %d: line %x, node serializes to %x", step, l, n.Serialize())
			}
			for i, c := range n.Counters {
				for k := 0; k < 7; k++ {
					if l[i*7+k] != byte(c>>(8*k)) {
						t.Fatalf("step %d: counter %d byte %d is %#x, node counter %#x", step, i, k, l[i*7+k], c)
					}
				}
				if l.Counter(i) != c {
					t.Fatalf("step %d: Counter(%d) = %#x, node %#x", step, i, l.Counter(i), c)
				}
			}
			if binary.LittleEndian.Uint64(l[56:]) != n.MAC {
				t.Fatalf("step %d: MAC bytes %x, node MAC %#x", step, l[56:], n.MAC)
			}
		}
		check(-1)
		for step, op := range script {
			slot := int(op % CountersPerNode)
			l.Increment(slot)
			n.Increment(slot)
			check(step)
		}
	})
}
