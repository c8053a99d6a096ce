package ctrenc

import (
	"bytes"
	"testing"
)

// FuzzCtrEncRoundTrip checks the encryption engine's core contracts on
// arbitrary inputs: counter-mode encrypt/decrypt is an exact involution,
// both the ciphertext and the data MAC are deterministic, and flipping any
// ciphertext byte both changes the MAC and corrupts the decrypted
// plaintext at exactly that byte (CTR's bit-level malleability — which is
// why every block carries a MAC in the first place).
func FuzzCtrEncRoundTrip(f *testing.F) {
	f.Add([]byte("soteria"), uint64(0x1000), uint64(7), []byte("hello, NVM"))
	f.Add([]byte{0}, uint64(0), uint64(0), []byte{})
	f.Add([]byte("k"), uint64(^uint64(0)), uint64(^uint64(0)), bytes.Repeat([]byte{0xFF}, BlockSize))
	f.Fuzz(func(t *testing.T, key []byte, addr, counter uint64, data []byte) {
		e, err := NewEngine(key)
		if err != nil {
			t.Skip() // rejected key (e.g. empty): nothing to test
		}
		var pt [BlockSize]byte
		copy(pt[:], data)

		ct := e.Encrypt(addr, counter, &pt)
		if got := e.Decrypt(addr, counter, &ct); got != pt {
			t.Fatalf("decrypt(encrypt(pt)) != pt\n got %x\nwant %x", got, pt)
		}
		if again := e.Encrypt(addr, counter, &pt); again != ct {
			t.Fatalf("encryption is nondeterministic for fixed (addr, counter)")
		}

		mac := e.DataMAC(addr, counter, &ct)
		if again := e.DataMAC(addr, counter, &ct); again != mac {
			t.Fatalf("DataMAC is nondeterministic")
		}

		flip := int(addr % BlockSize)
		tampered := ct
		tampered[flip] ^= 0x01
		if e.DataMAC(addr, counter, &tampered) == mac {
			t.Fatalf("flipping ciphertext byte %d left the MAC unchanged", flip)
		}
		dec := e.Decrypt(addr, counter, &tampered)
		for i := range dec {
			want := pt[i]
			if i == flip {
				want ^= 0x01
			}
			if dec[i] != want {
				t.Fatalf("CTR malleability violated at byte %d: got %#x want %#x", i, dec[i], want)
			}
		}
	})
}

// FuzzCounterLineMatchesBlock runs one op script over a CounterBlock and
// over its stored form, a CounterLine, from the same starting state
// (major, MAC and minors from the inputs, each minor masked to MinorMax),
// and demands that after every op the line equals the block's Serialize()
// and that Major, Minor and Counter read the block's fields.
//
// The script is read a byte at a time: 0xFF bumps the major counter,
// 0x80..0xBF increments slot op&63 until it overflows at MinorMax (both
// sides must report the overflow at the same step and change nothing), and
// any other byte increments slot op%64 once.
func FuzzCounterLineMatchesBlock(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte{}, []byte{0, 1, 63, 0xFF, 0})
	f.Add(uint64(7), uint64(0xDEADBEEF), bytes.Repeat([]byte{MinorMax}, CountersPerBlock), []byte{5, 0x85, 0xFF, 5})
	f.Add(^uint64(0), ^uint64(0), []byte{62, 63, 1}, []byte{0x80, 1, 1, 0xBF, 0xFF, 0x81})
	f.Fuzz(func(t *testing.T, major, mac uint64, minors, script []byte) {
		cb := CounterBlock{Major: major, MAC: mac}
		for i := 0; i < len(minors) && i < CountersPerBlock; i++ {
			cb.Minors[i] = minors[i] & MinorMax
		}
		l := CounterLine(cb.Serialize())
		check := func(step int) {
			t.Helper()
			if [BlockSize]byte(l) != cb.Serialize() {
				t.Fatalf("step %d: line %x, block serializes to %x", step, l, cb.Serialize())
			}
			if l.Major() != cb.Major {
				t.Fatalf("step %d: Major %d, block %d", step, l.Major(), cb.Major)
			}
			for i := 0; i < CountersPerBlock; i++ {
				if l.Minor(i) != cb.Minors[i] || l.Counter(i) != cb.Counter(i) {
					t.Fatalf("step %d: slot %d reads minor %d counter %d, block %d/%d",
						step, i, l.Minor(i), l.Counter(i), cb.Minors[i], cb.Counter(i))
				}
			}
		}
		inc := func(step, slot int) bool {
			t.Helper()
			got, want := l.Increment(slot), cb.Increment(slot)
			if got != want {
				t.Fatalf("step %d: Increment(%d) overflow=%v, block %v", step, slot, got, want)
			}
			check(step)
			return got
		}
		check(-1)
		for step, op := range script {
			switch {
			case op == 0xFF:
				l.BumpMajor()
				cb.BumpMajor()
				check(step)
			case op&0xC0 == 0x80:
				for n := 0; !inc(step, int(op&63)); n++ {
					if n > MinorMax {
						t.Fatalf("step %d: slot %d never overflowed", step, op&63)
					}
				}
			default:
				inc(step, int(op%CountersPerBlock))
			}
		}
	})
}
