package ctrenc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"soteria/internal/telemetry"
)

func eng(t testing.TB) *Engine {
	t.Helper()
	return MustNewEngine([]byte("test-root-key"))
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	e := eng(t)
	f := func(pt [BlockSize]byte, addr, ctr uint64) bool {
		ct := e.Encrypt(addr, ctr, &pt)
		back := e.Decrypt(addr, ctr, &ct)
		return back == pt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextDependsOnAddressAndCounter(t *testing.T) {
	e := eng(t)
	var pt [BlockSize]byte
	a := e.Encrypt(0x1000, 5, &pt)
	b := e.Encrypt(0x1040, 5, &pt)
	c := e.Encrypt(0x1000, 6, &pt)
	if a == b {
		t.Fatal("same pad for different addresses (spatial OTP reuse)")
	}
	if a == c {
		t.Fatal("same pad for different counters (temporal OTP reuse)")
	}
}

func TestWrongCounterFailsToDecrypt(t *testing.T) {
	e := eng(t)
	pt := [BlockSize]byte{1, 2, 3}
	ct := e.Encrypt(64, 10, &pt)
	got := e.Decrypt(64, 11, &ct)
	if got == pt {
		t.Fatal("decrypted correctly with wrong counter")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	e1 := MustNewEngine([]byte("k1"))
	e2 := MustNewEngine([]byte("k2"))
	var pt [BlockSize]byte
	if e1.Encrypt(0, 0, &pt) == e2.Encrypt(0, 0, &pt) {
		t.Fatal("two keys produced identical pads")
	}
	if e1.DataMAC(0, 0, &pt) == e2.DataMAC(0, 0, &pt) {
		t.Fatal("two keys produced identical MACs")
	}
}

func TestMACDomainSeparation(t *testing.T) {
	e := eng(t)
	body := []byte("same bytes")
	m1 := e.MAC(DomainData, 1, 2, body)
	m2 := e.MAC(DomainCounter, 1, 2, body)
	m3 := e.MAC(DomainNode, 1, 2, body)
	if m1 == m2 || m2 == m3 || m1 == m3 {
		t.Fatal("MAC domains collide")
	}
	if e.MAC(DomainData, 1, 2, body) != m1 {
		t.Fatal("MAC not deterministic")
	}
	if e.MAC(DomainData, 2, 2, body) == m1 {
		t.Fatal("MAC ignores tweak1")
	}
	if e.MAC(DomainData, 1, 3, body) == m1 {
		t.Fatal("MAC ignores tweak2")
	}
}

// MAC is BookMAC plus ComputeMAC: booking counts one MAC in its domain
// and computes nothing, computing returns MAC's value and books nothing.
func TestBookMACAndComputeMACSplitMAC(t *testing.T) {
	e := eng(t)
	reg := telemetry.NewRegistry()
	e.AttachTelemetry(reg)
	count := func(name string) uint64 { return reg.Counter("ctrenc_mac_" + name + "_total").Value() }
	body := []byte("one line of shadow state")
	m := e.MAC(DomainShadowTree, 3, 0, body)
	if got := e.ComputeMAC(DomainShadowTree, 3, 0, body); got != m {
		t.Fatalf("ComputeMAC = %#x, MAC = %#x", got, m)
	}
	e.BookMAC(DomainShadowTree)
	e.BookMAC(DomainShadow)
	if st, sh, d := count("shadow_tree"), count("shadow"), count("data"); st != 2 || sh != 1 || d != 0 {
		t.Fatalf("booked shadow_tree %d, shadow %d, data %d; want 2, 1, 0", st, sh, d)
	}
}

func TestDataMACDetectsTamper(t *testing.T) {
	e := eng(t)
	pt := [BlockSize]byte{9, 9, 9}
	ct := e.Encrypt(128, 3, &pt)
	mac := e.DataMAC(128, 3, &ct)
	// Flip one ciphertext bit.
	ct[10] ^= 1
	if e.DataMAC(128, 3, &ct) == mac {
		t.Fatal("MAC unchanged after ciphertext tamper")
	}
	ct[10] ^= 1
	// Replay at a different address.
	if e.DataMAC(192, 3, &ct) == mac {
		t.Fatal("MAC unchanged across addresses (replay)")
	}
	// Replay with an older counter.
	if e.DataMAC(128, 2, &ct) == mac {
		t.Fatal("MAC unchanged across counters (counter replay)")
	}
}

func TestMinorPackRoundTrip(t *testing.T) {
	f := func(raw [CountersPerBlock]uint8) bool {
		var c CounterBlock
		for i, v := range raw {
			c.Minors[i] = v & MinorMax
		}
		c.Major = 0xDEADBEEF
		c.MAC = 0x1234567890ABCDEF
		line := c.Serialize()
		back := DeserializeCounterBlock(&line)
		return back == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterIncrementAndOverflow(t *testing.T) {
	var c CounterBlock
	for i := 0; i < MinorMax; i++ {
		if c.Increment(7) {
			t.Fatalf("premature overflow at %d", i)
		}
	}
	if c.Minors[7] != MinorMax {
		t.Fatalf("minor = %d, want %d", c.Minors[7], MinorMax)
	}
	if !c.Increment(7) {
		t.Fatal("overflow not reported")
	}
	old := c.Counter(7)
	c.BumpMajor()
	if c.Major != 1 || c.Minors[7] != 0 {
		t.Fatal("BumpMajor did not reset")
	}
	if c.Counter(7) <= old {
		t.Fatal("counter went backwards after major bump")
	}
}

// Counters must be strictly monotonic across increments and major bumps —
// the anti-replay property the whole scheme rests on.
func TestCounterMonotonic(t *testing.T) {
	var c CounterBlock
	prev := c.Counter(0)
	for step := 0; step < 200; step++ {
		if c.Increment(0) {
			c.BumpMajor()
		}
		cur := c.Counter(0)
		if cur <= prev {
			t.Fatalf("counter not monotonic at step %d: %d <= %d", step, cur, prev)
		}
		prev = cur
	}
}

func TestContentMACBindsIndexAndParent(t *testing.T) {
	e := eng(t)
	var c CounterBlock
	c.Major = 7
	c.Minors[3] = 2
	m := c.ContentMAC(e, 10, 100)
	if c.ContentMAC(e, 11, 100) == m {
		t.Fatal("MAC ignores block index")
	}
	if c.ContentMAC(e, 10, 101) == m {
		t.Fatal("MAC ignores parent counter (node replay possible)")
	}
	// The stored MAC field must not feed back into the computation.
	c.MAC = 0xFFFF
	if c.ContentMAC(e, 10, 100) != m {
		t.Fatal("stored MAC field included in content MAC")
	}
}

func TestCounterValueLayout(t *testing.T) {
	var c CounterBlock
	c.Major = 2
	c.Minors[0] = 3
	if got, want := c.Counter(0), uint64(2<<MinorBits|3); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func BenchmarkEncryptLine(b *testing.B) {
	e := eng(b)
	var pt [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		e.Encrypt(uint64(i)*64, uint64(i), &pt)
	}
}

func BenchmarkDataMAC(b *testing.B) {
	e := eng(b)
	var ct [BlockSize]byte
	b.SetBytes(BlockSize)
	for i := 0; i < b.N; i++ {
		e.DataMAC(uint64(i)*64, 1, &ct)
	}
}

// BenchmarkContentMAC is the 56-byte shape: the counter-line, ToC-node and
// shadow-entry MACs all cover a line's first 56 bytes.
func BenchmarkContentMAC(b *testing.B) {
	e := eng(b)
	var line [BlockSize]byte
	b.SetBytes(56)
	for i := 0; i < b.N; i++ {
		allocSink = CounterLineMAC(e, uint64(i), 1, &line)
	}
}

// TestDeriveSubkeySeparation: subkeys are deterministic, and distinct
// across label, id and epoch — the properties the tenant layer's
// per-(tenant, epoch) key domains lean on.
func TestDeriveSubkeySeparation(t *testing.T) {
	e := MustNewEngine([]byte("subkey-test-root"))
	base := e.DeriveSubkey("tenant-data", 1, 1)
	if base != e.DeriveSubkey("tenant-data", 1, 1) {
		t.Fatal("subkey derivation is not deterministic")
	}
	others := [][32]byte{
		e.DeriveSubkey("tenant-auth", 1, 1),
		e.DeriveSubkey("tenant-data", 2, 1),
		e.DeriveSubkey("tenant-data", 1, 2),
		MustNewEngine([]byte("other-root")).DeriveSubkey("tenant-data", 1, 1),
	}
	for i, o := range others {
		if o == base {
			t.Fatalf("subkey %d collides with the base derivation", i)
		}
	}
	// Subkeys must be usable as engine roots.
	sub := e.DeriveSubkey("tenant-data", 1, 1)
	if _, err := NewEngine(sub[:]); err != nil {
		t.Fatal(err)
	}
}

// packMinorsBitwise and unpackMinorsBitwise are the one-value-at-a-time
// loops packMinors and unpackMinors replaced; the stored format is theirs.
func packMinorsBitwise(dst []byte, minors *[CountersPerBlock]uint8) {
	for i := range dst {
		dst[i] = 0
	}
	bit := 0
	for _, m := range minors {
		v := uint16(m & MinorMax)
		byteIdx, off := bit/8, bit%8
		dst[byteIdx] |= byte(v << uint(off))
		if off > 2 {
			dst[byteIdx+1] |= byte(v >> uint(8-off))
		}
		bit += MinorBits
	}
}

func unpackMinorsBitwise(src []byte, minors *[CountersPerBlock]uint8) {
	bit := 0
	for i := range minors {
		byteIdx, off := bit/8, bit%8
		v := uint16(src[byteIdx]) >> uint(off)
		if off > 2 {
			v |= uint16(src[byteIdx+1]) << uint(8-off)
		}
		minors[i] = uint8(v & MinorMax)
		bit += MinorBits
	}
}

func TestPackMinorsFormatUnchanged(t *testing.T) {
	same := func(minors [CountersPerBlock]uint8, what string) {
		t.Helper()
		var got, want [48]byte
		for i := range got {
			got[i] = 0xEE // packMinors must overwrite, not OR into, its destination
		}
		packMinors(got[:], &minors)
		packMinorsBitwise(want[:], &minors)
		if got != want {
			t.Fatalf("%s: packed %x, want %x", what, got, want)
		}
		var back, backWant [CountersPerBlock]uint8
		unpackMinors(got[:], &back)
		unpackMinorsBitwise(want[:], &backWant)
		if back != backWant {
			t.Fatalf("%s: unpacked %v, want %v", what, back, backWant)
		}
	}
	var v [CountersPerBlock]uint8
	same(v, "all zero")
	for i := range v {
		v[i] = MinorMax
	}
	same(v, "all MinorMax")
	for i := 0; i < CountersPerBlock; i++ {
		for bit := 0; bit < MinorBits; bit++ {
			v = [CountersPerBlock]uint8{}
			v[i] = 1 << bit
			same(v, "walking one")
		}
	}
	rng := rand.New(rand.NewSource(15))
	for n := 0; n < 10000; n++ {
		for i := range v {
			v[i] = uint8(rng.Intn(256)) // bits above MinorMax must be dropped, as before
		}
		same(v, "random")
	}
	// Arbitrary stored bytes unpack alike too.
	var raw [48]byte
	for n := 0; n < 10000; n++ {
		rng.Read(raw[:])
		var back, backWant [CountersPerBlock]uint8
		unpackMinors(raw[:], &back)
		unpackMinorsBitwise(raw[:], &backWant)
		if back != backWant {
			t.Fatalf("unpack of %x: %v, want %v", raw, back, backWant)
		}
	}
}
