package ctrenc

import "testing"

// allocSink keeps the measured calls observable so the compiler cannot
// elide them.
var allocSink uint64

// TestMACZeroAllocs pins the hot-path MAC at zero heap allocations per
// call: the keyed digest midstate and the SipHash state both live in
// Engine-owned scratch, so a regression here means a scratch buffer
// started escaping again.
func TestMACZeroAllocs(t *testing.T) {
	eng := MustNewEngine([]byte("alloc-test-key"))
	var line [BlockSize]byte
	for i := range line {
		line[i] = byte(i)
	}
	avg := testing.AllocsPerRun(1000, func() {
		allocSink = eng.MAC(DomainData, 0x1234, 42, line[:])
	})
	if avg != 0 {
		t.Fatalf("Engine.MAC allocates %.2f objects/op, want 0", avg)
	}
}

// TestDataMACZeroAllocs covers the data-line MAC wrapper the datapath
// calls per read verify and per write.
func TestDataMACZeroAllocs(t *testing.T) {
	eng := MustNewEngine([]byte("alloc-test-key"))
	var line [BlockSize]byte
	avg := testing.AllocsPerRun(1000, func() {
		allocSink = eng.DataMAC(0x40, 7, &line)
	})
	if avg != 0 {
		t.Fatalf("Engine.DataMAC allocates %.2f objects/op, want 0", avg)
	}
}

// TestEncryptZeroAllocs pins line encryption and decryption at zero heap
// allocations: the pad is built in the engine, on the four-lane kernel and
// on the cipher.Block path alike.
func TestEncryptZeroAllocs(t *testing.T) {
	eng := MustNewEngine([]byte("alloc-test-key"))
	var line [BlockSize]byte
	for name, f := range map[string]func(uint64, uint64, *[BlockSize]byte) [BlockSize]byte{
		"Encrypt": eng.Encrypt,
		"Decrypt": eng.Decrypt,
	} {
		avg := testing.AllocsPerRun(1000, func() {
			line = f(0x40, 7, &line)
		})
		if avg != 0 {
			t.Fatalf("Engine.%s allocates %.2f objects/op, want 0", name, avg)
		}
	}
}
