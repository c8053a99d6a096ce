package ecc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	// alpha generates the multiplicative group: exp/log must be inverse.
	for i := 1; i < 256; i++ {
		a := byte(i)
		if gfMul(a, gfInv(a)) != 1 {
			t.Fatalf("a * a^-1 != 1 for a=%d", a)
		}
	}
	if gfMul(0, 123) != 0 || gfMul(77, 0) != 0 {
		t.Fatal("multiplication by zero must be zero")
	}
}

func TestGFMulCommutativeAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		return gfMul(gfMul(a, b), c) == gfMul(a, gfMul(b, c))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGFDistributive(t *testing.T) {
	f := func(a, b, c byte) bool {
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRSRoundTrip(t *testing.T) {
	rs, err := NewRS(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg [8]byte) bool {
		m := msg[:]
		check := rs.Encode(m)
		got := append([]byte(nil), m...)
		c := append([]byte(nil), check...)
		n, ok := rs.Decode(got, c)
		return ok && n == 0 && bytes.Equal(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRSSingleSymbolCorrection(t *testing.T) {
	rs, _ := NewRS(8, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		msg := make([]byte, 8)
		rng.Read(msg)
		check := rs.Encode(msg)
		gm := append([]byte(nil), msg...)
		gc := append([]byte(nil), check...)
		pos := rng.Intn(10)
		flip := byte(rng.Intn(255) + 1)
		if pos < 8 {
			gm[pos] ^= flip
		} else {
			gc[pos-8] ^= flip
		}
		n, ok := rs.Decode(gm, gc)
		if !ok || n != 1 {
			t.Fatalf("trial %d: single symbol error at %d not corrected (n=%d ok=%v)", trial, pos, n, ok)
		}
		if !bytes.Equal(gm, msg) {
			t.Fatalf("trial %d: miscorrected message", trial)
		}
	}
}

func TestRSDoubleSymbolDetection(t *testing.T) {
	rs, _ := NewRS(8, 2)
	rng := rand.New(rand.NewSource(4))
	detected := 0
	const trials = 5000
	for trial := 0; trial < trials; trial++ {
		msg := make([]byte, 8)
		rng.Read(msg)
		check := rs.Encode(msg)
		gm := append([]byte(nil), msg...)
		gc := append([]byte(nil), check...)
		p1 := rng.Intn(10)
		p2 := rng.Intn(10)
		for p2 == p1 {
			p2 = rng.Intn(10)
		}
		for _, p := range []int{p1, p2} {
			flip := byte(rng.Intn(255) + 1)
			if p < 8 {
				gm[p] ^= flip
			} else {
				gc[p-8] ^= flip
			}
		}
		_, ok := rs.Decode(gm, gc)
		if !ok {
			detected++
		} else if !bytes.Equal(gm, msg) {
			// Miscorrection: possible for a distance-3 code with two
			// errors, but it must be rare enough that Soteria's MAC
			// layer catches it (the paper relies on this layering).
			continue
		}
	}
	if detected < trials*90/100 {
		t.Fatalf("RS(10,8) detected only %d/%d double-symbol errors", detected, trials)
	}
}

func TestRSWiderCodeCorrectsTwo(t *testing.T) {
	rs, err := NewRS(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		msg := make([]byte, 16)
		rng.Read(msg)
		check := rs.Encode(msg)
		gm := append([]byte(nil), msg...)
		gc := append([]byte(nil), check...)
		p1 := rng.Intn(20)
		p2 := rng.Intn(20)
		for p2 == p1 {
			p2 = rng.Intn(20)
		}
		for _, p := range []int{p1, p2} {
			flip := byte(rng.Intn(255) + 1)
			if p < 16 {
				gm[p] ^= flip
			} else {
				gc[p-16] ^= flip
			}
		}
		n, ok := rs.Decode(gm, gc)
		if !ok || n != 2 || !bytes.Equal(gm, msg) {
			t.Fatalf("trial %d: RS(20,16) failed to correct 2 errors (n=%d ok=%v)", trial, n, ok)
		}
	}
}

func TestChipkillChipFailure(t *testing.T) {
	ck := NewChipkill()
	line := make([]byte, 64)
	rng := rand.New(rand.NewSource(6))
	rng.Read(line)
	check := encode(ck, line)

	// A whole-chip failure corrupts byte lane `chip` in every beat.
	got := append([]byte(nil), line...)
	gc := append([]byte(nil), check...)
	chip := 3
	for beat := 0; beat < 8; beat++ {
		got[beat*8+chip] ^= byte(0xA5)
	}
	res := ck.Decode(got, gc)
	if res.Uncorrectable || !res.Corrected || res.SymbolsCorrected != 8 {
		t.Fatalf("single-chip failure not corrected: %+v", res)
	}
	if !bytes.Equal(got, line) {
		t.Fatal("chipkill decode produced wrong data")
	}

	// Failures on two chips are uncorrectable.
	got = append([]byte(nil), line...)
	gc = append([]byte(nil), check...)
	for beat := 0; beat < 8; beat++ {
		got[beat*8+2] ^= 0x5A
		got[beat*8+6] ^= 0x77
	}
	res = ck.Decode(got, gc)
	if !res.Uncorrectable {
		t.Fatalf("double-chip failure not detected: %+v", res)
	}
}

func TestChipkillECCChipFailure(t *testing.T) {
	ck := NewChipkill()
	line := make([]byte, 64)
	for i := range line {
		line[i] = byte(i)
	}
	check := encode(ck, line)
	got := append([]byte(nil), line...)
	gc := append([]byte(nil), check...)
	// Kill one ECC device (check byte lane 0 of every beat).
	for beat := 0; beat < 8; beat++ {
		gc[beat*2] ^= 0xFF
	}
	res := ck.Decode(got, gc)
	if res.Uncorrectable || !bytes.Equal(got, line) {
		t.Fatalf("ECC-chip failure not transparent: %+v", res)
	}
}

func BenchmarkChipkillEncodeLine(b *testing.B) {
	ck := NewChipkill()
	line := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(line)
	check := make([]byte, ck.CheckBytes())
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line[i&63]++
		ck.EncodeInto(check, line)
	}
}

func BenchmarkChipkillDecodeClean(b *testing.B) {
	ck := NewChipkill()
	line := make([]byte, 64)
	rand.New(rand.NewSource(1)).Read(line)
	check := encode(ck, line)
	b.SetBytes(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ck.Decode(line, check).Uncorrectable {
			b.Fatal("clean line reported uncorrectable")
		}
	}
}

// Decoding a line with a correctable or an uncorrectable error in every
// word allocates nothing: a fault storm must not turn into garbage-collector
// work below the controller.
func TestFaultyDecodeDoesNotAllocate(t *testing.T) {
	ck := NewChipkill()
	var line [64]byte
	var check [16]byte
	for i := range line {
		line[i] = byte(i*37 + 11)
	}
	ck.EncodeInto(check[:], line[:])
	for _, c := range []struct {
		name string
		flip [2]byte // XORed into bytes 0 and 3 of every word
		want Result
	}{
		{"corrected", [2]byte{0x04, 0}, Result{Corrected: true, SymbolsCorrected: 8}},
		{"uncorrectable", [2]byte{0x01, 0x80}, Result{Uncorrectable: true, BadWords: 0xFF}},
	} {
		var got Result
		data, chk := make([]byte, 64), make([]byte, ck.CheckBytes())
		allocs := testing.AllocsPerRun(100, func() {
			copy(data, line[:])
			copy(chk, check[:])
			for w := 0; w < 8; w++ {
				data[w*8] ^= c.flip[0]
				data[w*8+3] ^= c.flip[1]
			}
			got = ck.Decode(data, chk)
		})
		if got != c.want {
			t.Fatalf("%s: %+v, want %+v", c.name, got, c.want)
		}
		if allocs != 0 {
			t.Fatalf("%s: Decode allocates %v times", c.name, allocs)
		}
	}
}

// encode returns the Chipkill check bytes of line in a new slice.
func encode(ck *Chipkill, line []byte) []byte {
	check := make([]byte, ck.CheckBytes())
	ck.EncodeInto(check, line)
	return check
}
