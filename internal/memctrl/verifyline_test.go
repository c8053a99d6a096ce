package memctrl

import (
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/nvm"
)

// referenceVerify is the decode-then-MAC predicate verifyLine replaced:
// deserialize the stored line, re-serialize it inside ContentMAC, and
// compare against the decoded MAC field. It stays here as the reference
// the in-place check must agree with.
func referenceVerify(c *Controller, level int, index, pctr uint64, l *nvm.Line) bool {
	if isZeroLine(l) {
		return pctr == 0
	}
	if level == 1 {
		cb := ctrenc.DeserializeCounterBlock(l)
		return cb.ContentMAC(c.eng, index, pctr) == cb.MAC
	}
	n := itree.DeserializeNode(l)
	return n.ContentMAC(c.eng, level, index, pctr) == n.MAC
}

// sealLine stores, in the last 8 bytes of l, the MAC the reference
// computes for its body, making l a valid image of (level, index) under
// pctr.
func sealLine(c *Controller, level int, index, pctr uint64, l *nvm.Line) {
	if level == 1 {
		cb := ctrenc.DeserializeCounterBlock(l)
		cb.MAC = cb.ContentMAC(c.eng, index, pctr)
		*l = cb.Serialize()
		return
	}
	n := itree.DeserializeNode(l)
	n.MAC = n.ContentMAC(c.eng, level, index, pctr)
	*l = n.Serialize()
}

// TestVerifyLineMatchesDecodeThenMAC checks the in-place verifier against
// the reference over seeded random lines at every tree level, with zero
// and non-zero parent counters: random content, the same content sealed
// with its correct MAC, and that sealed line with one MAC or body bit
// flipped, plus the all-zero line. It also pins the codec property the
// in-place check rests on: every line round-trips through both codecs
// byte for byte, so the bytes MACed in place are the bytes ContentMAC
// would serialize.
func TestVerifyLineMatchesDecodeThenMAC(t *testing.T) {
	c, err := New(config.TestSystem(), ModeSRC, []byte("verify-line"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lines := 100_000
	if testing.Short() {
		lines = 10_000
	}
	rng := rand.New(rand.NewSource(1))
	top := c.layout.TopLevel()
	check := func(what string, level int, index, pctr uint64, l *nvm.Line, want bool) {
		t.Helper()
		got, ref := c.verifyLine(level, index, pctr, l), referenceVerify(c, level, index, pctr, l)
		if got != ref || got != want {
			t.Fatalf("%s L%d[%d] pctr %d: verifyLine %v, reference %v, want %v (line %x)",
				what, level, index, pctr, got, ref, want, l[:])
		}
	}
	for level := 1; level <= top; level++ {
		for _, pctr := range []uint64{0, 1 + rng.Uint64()&itree.CounterMask} {
			var zero nvm.Line
			check("zero", level, 0, pctr, &zero, pctr == 0)
		}
	}
	for i := 0; i < lines; i++ {
		level := 1 + rng.Intn(top)
		index := uint64(rng.Int63n(int64(c.layout.Levels[level-1].Nodes)))
		pctr := uint64(0)
		if rng.Intn(2) == 1 {
			pctr = rng.Uint64() & itree.CounterMask
		}
		var l nvm.Line
		rng.Read(l[:])

		cb := ctrenc.DeserializeCounterBlock(&l)
		if got := cb.Serialize(); got != l {
			t.Fatalf("counter block codec is lossy: %x -> %x", l[:], got[:])
		}
		n := itree.DeserializeNode(&l)
		if got := n.Serialize(); got != l {
			t.Fatalf("node codec is lossy: %x -> %x", l[:], got[:])
		}

		check("random", level, index, pctr, &l, referenceVerify(c, level, index, pctr, &l))
		sealLine(c, level, index, pctr, &l)
		check("sealed", level, index, pctr, &l, true)
		macFlip, bodyFlip := l, l
		macFlip[56+rng.Intn(8)] ^= 1 << rng.Intn(8)
		check("MAC bit flipped", level, index, pctr, &macFlip, false)
		bodyFlip[rng.Intn(56)] ^= 1 << rng.Intn(8)
		check("body bit flipped", level, index, pctr, &bodyFlip, false)
	}
}
