package ecc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// refChipkill is the reference the table-sliced Chipkill is held to: one
// long-division RS.EncodeTo and one syndrome RS.Decode per beat, every beat,
// clean or not.
type refChipkill struct{ rs *RS }

func newRefChipkill(t testing.TB) refChipkill {
	rs, err := NewRS(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return refChipkill{rs}
}

func (c refChipkill) EncodeInto(check, data []byte) {
	for b := 0; b < 8; b++ {
		c.rs.EncodeTo(check[b*2:b*2+2], data[b*8:b*8+8])
	}
}

func (c refChipkill) Decode(data, check []byte) Result {
	res := Result{}
	for b := 0; b < 8; b++ {
		n, ok := c.rs.Decode(data[b*8:b*8+8], check[b*2:b*2+2])
		if !ok {
			res.Uncorrectable = true
			res.BadWords |= 1 << b
			continue
		}
		if n > 0 {
			res.Corrected = true
			res.SymbolsCorrected += n
		}
	}
	return res
}

// codeword is one line as stored: 64 data bytes then 16 check bytes. Symbol
// s of beat b is byte symbolAt(b, s).
type codeword [80]byte

func symbolAt(beat, sym int) int {
	if sym < 8 {
		return beat*8 + sym
	}
	return 64 + beat*2 + sym - 8
}

// sameDecode decodes cw with both codecs and fails unless Result and the
// bytes left behind agree.
func sameDecode(t testing.TB, ck *Chipkill, ref refChipkill, cw codeword, what string) Result {
	t.Helper()
	got, want := cw, cw
	gr := ck.Decode(got[:64], got[64:])
	wr := ref.Decode(want[:64], want[64:])
	if !reflect.DeepEqual(gr, wr) {
		t.Fatalf("%s: Result %+v, reference %+v", what, gr, wr)
	}
	if got != want {
		t.Fatalf("%s: bytes after decode differ from reference\n got  %x\n want %x", what, got, want)
	}
	return gr
}

func randomCodeword(rng *rand.Rand, ref refChipkill) codeword {
	var cw codeword
	rng.Read(cw[:64])
	ref.EncodeInto(cw[64:], cw[:64])
	return cw
}

func TestChipkillEncodeMatchesReference(t *testing.T) {
	ck, ref := NewChipkill(), newRefChipkill(t)
	got, want := make([]byte, 16), make([]byte, 16)
	same := func(line []byte, what string) {
		t.Helper()
		ck.EncodeInto(got, line)
		ref.EncodeInto(want, line)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: check bytes %x, reference %x", what, got, want)
		}
	}
	// Every beat whose only non-zero symbol is v at position j, placed in
	// each of the eight beats in turn.
	for j := 0; j < 8; j++ {
		for v := 0; v < 256; v++ {
			line := make([]byte, 64)
			line[(v%8)*8+j] = byte(v)
			same(line, "single-symbol beat")
		}
	}
	rng := rand.New(rand.NewSource(15))
	line := make([]byte, 64)
	for i := 0; i < 100000; i++ {
		rng.Read(line)
		same(line, "random line")
	}
}

func TestChipkillDecodeMatchesReferenceExhaustiveSingle(t *testing.T) {
	ck, ref := NewChipkill(), newRefChipkill(t)
	clean := randomCodeword(rand.New(rand.NewSource(16)), ref)
	if r := sameDecode(t, ck, ref, clean, "clean"); r.Corrected || r.Uncorrectable {
		t.Fatalf("clean line: %+v", r)
	}
	for beat := 0; beat < 8; beat++ {
		for sym := 0; sym < 10; sym++ {
			for mag := 1; mag < 256; mag++ {
				cw := clean
				cw[symbolAt(beat, sym)] ^= byte(mag)
				r := sameDecode(t, ck, ref, cw, "single-symbol error")
				if !r.Corrected || r.SymbolsCorrected != 1 || r.Uncorrectable {
					t.Fatalf("beat %d symbol %d magnitude %#x: %+v", beat, sym, mag, r)
				}
			}
		}
	}
}

func TestChipkillDecodeMatchesReferenceHeavyErrors(t *testing.T) {
	ck, ref := NewChipkill(), newRefChipkill(t)
	rng := rand.New(rand.NewSource(17))
	var miscorrected, detected int
	for trial := 0; trial < 60000; trial++ {
		clean := randomCodeword(rng, ref)
		cw := clean
		// Two or three bad symbols in one beat; every fourth trial also
		// hits a second beat with one, so corrected and uncorrectable
		// beats share a line.
		beat := rng.Intn(8)
		for _, sym := range rng.Perm(10)[:2+trial%2] {
			cw[symbolAt(beat, sym)] ^= byte(1 + rng.Intn(255))
		}
		if trial%4 == 0 {
			cw[symbolAt((beat+1)%8, rng.Intn(10))] ^= byte(1 + rng.Intn(255))
		}
		r := sameDecode(t, ck, ref, cw, "multi-symbol error")
		if r.Uncorrectable {
			detected++
		} else {
			miscorrected++
		}
	}
	// A distance-3 code miscorrects some heavy errors; the sample must
	// hold both outcomes or it is not testing what it claims to.
	if miscorrected == 0 || detected == 0 {
		t.Fatalf("sample has %d miscorrections and %d detections", miscorrected, detected)
	}

	// Errors confined to the check bytes: one and two bad check symbols
	// per beat, in every beat at once.
	for trial := 0; trial < 2000; trial++ {
		cw := randomCodeword(rng, ref)
		for beat := 0; beat < 8; beat++ {
			cw[symbolAt(beat, 8+rng.Intn(2))] ^= byte(1 + rng.Intn(255))
			if trial%2 == 1 {
				cw[symbolAt(beat, 8)] ^= byte(rng.Intn(256))
				cw[symbolAt(beat, 9)] ^= byte(rng.Intn(256))
			}
		}
		sameDecode(t, ck, ref, cw, "check-byte error")
	}
}

func TestChipkillHotPathDoesNotAllocate(t *testing.T) {
	ck := NewChipkill()
	cw := randomCodeword(rand.New(rand.NewSource(18)), newRefChipkill(t))
	check := make([]byte, 16)
	if n := testing.AllocsPerRun(100, func() { ck.EncodeInto(check, cw[:64]) }); n != 0 {
		t.Fatalf("EncodeInto allocates %v times", n)
	}
	if n := testing.AllocsPerRun(100, func() { ck.Decode(cw[:64], cw[64:]) }); n != 0 {
		t.Fatalf("clean Decode allocates %v times", n)
	}
}

// FuzzChipkillMatchesReference flips up to four bytes of an encoded line —
// flips is (position, xor) pairs, positions 64..79 being check bytes — and
// requires the same Result and the same bytes from both decoders.
func FuzzChipkillMatchesReference(f *testing.F) {
	f.Add([]byte("soteria"), []byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, 64), []byte{8, 0xFF, 11, 0x80, 40, 0x01}) // more under testdata/fuzz
	ck, ref := NewChipkill(), newRefChipkill(f)
	f.Fuzz(func(t *testing.T, line, flips []byte) {
		var cw codeword
		copy(cw[:64], line)
		ref.EncodeInto(cw[64:], cw[:64])
		for i := 0; i+1 < len(flips) && i < 8; i += 2 {
			cw[int(flips[i])%len(cw)] ^= flips[i+1]
		}
		sameDecode(t, ck, ref, cw, "fuzzed line")
	})
}
