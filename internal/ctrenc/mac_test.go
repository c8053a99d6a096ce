package ctrenc

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"testing"
)

// refKeys is the MAC key schedule spelled out without the engine's digest
// midstate: k0/k1 and the ten NH words, each from SHA-256(macKey || label).
type refKeys struct {
	k0, k1 uint64
	nh     [10]uint64
}

func newRefKeys(rootKey []byte) refKeys {
	macKey := sha256.Sum256(append([]byte("soteria-mac-key:"), rootKey...))
	sum := func(parts ...string) [32]byte {
		msg := append([]byte{}, macKey[:]...)
		for _, p := range parts {
			msg = append(msg, p...)
		}
		return sha256.Sum256(msg)
	}
	var k refKeys
	sub := sum("soteria-mac-subkeys")
	k.k0 = binary.LittleEndian.Uint64(sub[0:])
	k.k1 = binary.LittleEndian.Uint64(sub[8:])
	for i := range k.nh {
		nh := sum("soteria-mac-nh", string([]byte{byte(i / 4)}))
		k.nh[i] = binary.LittleEndian.Uint64(nh[i%4*8:])
	}
	return k
}

// refMAC is the slow oracle for Engine.MAC: NH one word pair at a time in
// big-integer arithmetic, then SipHash-1-3 one round at a time.
func refMAC(k refKeys, domain MACDomain, tweak1, tweak2 uint64, msg []byte) uint64 {
	var padded [BlockSize]byte
	copy(padded[:], msg)
	words := make([]uint64, 0, 10)
	for i := 0; i < BlockSize; i += 8 {
		words = append(words, binary.LittleEndian.Uint64(padded[i:]))
	}
	words = append(words, tweak1, tweak2)

	mod64 := new(big.Int).Lsh(big.NewInt(1), 64)
	mod128 := new(big.Int).Lsh(big.NewInt(1), 128)
	h := new(big.Int)
	for i := 0; i < len(words); i += 2 {
		a := new(big.Int).SetUint64(words[i])
		a.Add(a, new(big.Int).SetUint64(k.nh[i])).Mod(a, mod64)
		b := new(big.Int).SetUint64(words[i+1])
		b.Add(b, new(big.Int).SetUint64(k.nh[i+1])).Mod(b, mod64)
		h.Add(h, a.Mul(a, b)).Mod(h, mod128)
	}
	lo := new(big.Int).Mod(h, mod64).Uint64()
	hi := new(big.Int).Rsh(h, 64).Uint64()

	rotl := func(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }
	v := [4]uint64{
		k.k0 ^ 0x736f6d6570736575,
		k.k1 ^ 0x646f72616e646f6d,
		k.k0 ^ 0x6c7967656e657261,
		k.k1 ^ 0x7465646279746573,
	}
	round := func() {
		v[0] += v[1]
		v[1] = rotl(v[1], 13) ^ v[0]
		v[0] = rotl(v[0], 32)
		v[2] += v[3]
		v[3] = rotl(v[3], 16) ^ v[2]
		v[0] += v[3]
		v[3] = rotl(v[3], 21) ^ v[0]
		v[2] += v[1]
		v[1] = rotl(v[1], 17) ^ v[2]
		v[2] = rotl(v[2], 32)
	}
	for _, m := range []uint64{lo, hi, uint64(len(msg)) | uint64(domain)<<56} {
		v[3] ^= m
		round() // SipHash-1-3: one compression round per word
		v[0] ^= m
	}
	v[2] ^= 0xff
	for r := 0; r < 3; r++ {
		round()
	}
	return v[0] ^ v[1] ^ v[2] ^ v[3]
}

// FuzzMACMatchesReference: the engine's MAC equals refMAC for any root
// key, domain, tweaks and message of 0 to 64 bytes.
func FuzzMACMatchesReference(f *testing.F) {
	f.Add([]byte("soteria"), byte(DomainData), uint64(0x1000), uint64(7), make([]byte, BlockSize))
	f.Add([]byte("k"), byte(DomainCounter), uint64(3), uint64(1<<63), []byte("56 bytes of counter line ........................"))
	f.Add([]byte{0}, byte(0), uint64(0), uint64(0), []byte{})
	f.Add([]byte("x"), byte(0xff), ^uint64(0), ^uint64(0), []byte("same bytes"))
	for n := 0; n <= BlockSize; n++ { // every length, so plain go test covers each padding case
		f.Add([]byte("len"), byte(DomainShadow), uint64(n), uint64(1), bytes.Repeat([]byte{0xa5}, n))
	}
	f.Fuzz(func(t *testing.T, key []byte, domain byte, tweak1, tweak2 uint64, msg []byte) {
		if len(msg) > BlockSize {
			msg = msg[:BlockSize]
		}
		e, err := NewEngine(key)
		if err != nil {
			t.Skip()
		}
		got := e.MAC(MACDomain(domain), tweak1, tweak2, msg)
		if want := refMAC(newRefKeys(key), MACDomain(domain), tweak1, tweak2, msg); got != want {
			t.Fatalf("MAC(%d, %#x, %#x, %x) = %#x, reference %#x", domain, tweak1, tweak2, msg, got, want)
		}
	})
}

// TestMACKnownAnswer pins MAC values under a fixed key, one per message
// shape the callers use (64-byte data and shadow lines, 56-byte counter,
// node and shadow-entry bodies) plus the empty and a short message. A
// change here changes every stored MAC: harmless across builds (no MAC
// outlives its engine's key), but it must be deliberate.
func TestMACKnownAnswer(t *testing.T) {
	e := MustNewEngine([]byte("test-root-key"))
	var line [BlockSize]byte
	for i := range line {
		line[i] = byte(i*7 + 1)
	}
	for _, tc := range []struct {
		domain         MACDomain
		tweak1, tweak2 uint64
		msg            []byte
		want           uint64
	}{
		{DomainData, 0x1040, 9, line[:], 0x38ff2f9e1aff6ba1},
		{DomainCounter, 17, 1 << 40, line[:56], 0xd44644c56c391b56},
		{DomainShadow, 0x2000, 0, []byte("same bytes"), 0xbe4bfc2334e932bd},
		{DomainNode, 0, 0, nil, 0x1543c70ff23caf34},
	} {
		got := e.MAC(tc.domain, tc.tweak1, tc.tweak2, tc.msg)
		if got != tc.want {
			t.Errorf("MAC(%d, %#x, %#x, %d bytes) = %#x, want %#x", tc.domain, tc.tweak1, tc.tweak2, len(tc.msg), got, tc.want)
		}
		if ref := refMAC(newRefKeys([]byte("test-root-key")), tc.domain, tc.tweak1, tc.tweak2, tc.msg); ref != got {
			t.Errorf("MAC(%d, %#x, %#x, %d bytes) = %#x, reference %#x", tc.domain, tc.tweak1, tc.tweak2, len(tc.msg), got, ref)
		}
	}
}

// TestMACBindsLength: zero padding does not let a message collide with
// itself extended by zero bytes; the length word separates them.
func TestMACBindsLength(t *testing.T) {
	e := eng(t)
	if e.MAC(DomainData, 1, 2, []byte("ab")) == e.MAC(DomainData, 1, 2, []byte("ab\x00")) {
		t.Fatal(`MAC("ab") == MAC("ab\x00"): length not bound`)
	}
	if e.MAC(DomainData, 1, 2, nil) == e.MAC(DomainData, 1, 2, make([]byte, BlockSize)) {
		t.Fatal("MAC of the empty message equals MAC of a zero line")
	}
}

// TestMACRejectsLongMessage: MAC covers at most one line.
func TestMACRejectsLongMessage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MAC accepted a 65-byte message")
		}
	}()
	eng(t).MAC(DomainData, 0, 0, make([]byte, BlockSize+1))
}
