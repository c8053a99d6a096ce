package ctrenc

import (
	"crypto/aes"
	"encoding/hex"
	"testing"
)

// TestOTPKnownAnswer pins Encrypt's output bytes for a fixed key and
// plaintext, so any change to how the one-time pad is built — the IV
// layout, the block-index fold, the AES implementation underneath — shows
// as a changed ciphertext. The counters with top byte 0x01, 0x02, 0x03 and
// 0xff are where folding the block index into IV byte 15 by XOR and
// adding it as a CTR increment disagree.
func TestOTPKnownAnswer(t *testing.T) {
	e := MustNewEngine([]byte("soteria-otp-kat"))
	var pt [BlockSize]byte
	for i := range pt {
		pt[i] = byte(3*i + 1)
	}
	for _, c := range []struct {
		addr, counter uint64
		ct            string
	}{
		{0x0, 0x0, "94f35ef0691e580f2a08b2d42ebd41661feee7cab3ca377e25ed7e10a662470f73e386179fc7538bc75f7d27ff3486855c6c137b7b5a13bf76ec7b5a27735fe3"},
		{0x40, 0x1, "46d306f934cb3b00c667f5d2e1f9facab55a7374b8b3747d915db9153de2389216634b434949f59073777238e4aff0be6a72172d21bfbc033ba5b118af73d949"},
		{0x1000, 0x0100000000000005, "b34de9a6d2d98eb8141478f83e4e23137880e5e160f009d2e2382e620b69bced765bfb72611f5e914713cc2b3e09eff95614e8b252ac954de2764e3dd01bdc6a"},
		{0x12345680, 0x02fffffffffffffe, "0f6987fb179fd98124bbe158f64d7f7be5ace5572bd26beff0ef0931728757f52e0804b075c4bcb61a1c38670d3477d0e696683a6fa68b1dbc474ad9212748ee"},
		{0xdeadbec0, 0x03000000000000ff, "66a132c2c0d0dc16b51b25c305d2ef7f45643f22d56cff9141d527e73ec34f3045e9a4dba1143e860e4d23fcb98a551ce12bbff05d003b008c9bf3a9fda0c213"},
		{0x7fffffc0, 0xff00000000000000, "f029c60974f3f3c4ef06747836884d2c6a350a0e49cbff2931c92f5b8a2b9fb488525b702e888d5f91f583d04ed1ac0fcc4d488960b70d3f7128d73bb903bc57"},
		{0xffffffffffffffff, 0xffffffffffffffff, "ceda2c0bbcfd3f3b510418b6d6a9d50c2ee20661717e6f421fd98c9ce8bc9713227fba34c30403095db102d4e9bb62f50aba8316a42eb9ea72f518b536664685"},
	} {
		ct := e.Encrypt(c.addr, c.counter, &pt)
		if got := hex.EncodeToString(ct[:]); got != c.ct {
			t.Errorf("Encrypt(%#x, %#x):\n got %s\nwant %s", c.addr, c.counter, got, c.ct)
		}
	}
}

// TestExpandKeyFIPS197 checks the key expansion against the worked example
// of FIPS-197 Appendix A.1: w[0..43] for key 2b7e1516 28aed2a6 abf71588
// 09cf4f3c.
func TestExpandKeyFIPS197(t *testing.T) {
	key := [16]byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	want := "2b7e151628aed2a6abf7158809cf4f3c" +
		"a0fafe1788542cb123a339392a6c7605" +
		"f2c295f27a96b9435935807a7359f67f" +
		"3d80477d4716fe3e1e237e446d7a883b" +
		"ef44a541a8525b7fb671253bdb0bad00" +
		"d4d1c6f87c839d87caf2b8bc11f915bc" +
		"6d88a37a110b3efddbf98641ca0093fd" +
		"4e54f70e5f5fc9f384a64fb24ea6dc4f" +
		"ead27321b58dbad2312bf5607f8d292f" +
		"ac7766f319fadc2128d12941575c006e" +
		"d014f9a8c9ee2589e13f0cc8b6630ca6"
	rk := expandKey128(&key)
	if got := hex.EncodeToString(rk[:]); got != want {
		t.Fatalf("round keys\n got %s\nwant %s", got, want)
	}
}

// FuzzPadMatchesBlockCipher demands that, for any AES-128 key, address and
// counter, the four-lane kernel's pad equals the one cipher.Block builds a
// block at a time. Without AES-NI there is no kernel to check.
func FuzzPadMatchesBlockCipher(f *testing.F) {
	f.Add([]byte("soteria-otp-key!"), uint64(0x1000), uint64(7))
	f.Add([]byte{}, uint64(0), uint64(0x01000000000000ff))
	f.Add([]byte{0xff}, ^uint64(0), uint64(0xff00000000000000))
	f.Add([]byte("k"), uint64(0x40), uint64(0x0300000000000001))
	f.Fuzz(func(t *testing.T, keyBytes []byte, addr, counter uint64) {
		if !hasAESNI {
			t.Skip("no AES-NI: the pad is the cipher.Block loop itself")
		}
		var key [16]byte
		copy(key[:], keyBytes)
		blk, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		rk := expandKey128(&key)
		var got, want [BlockSize]byte
		encryptPad(&rk, &got, addr, counter)
		padBlockCipher(blk, &want, addr, counter)
		if got != want {
			t.Fatalf("key %x addr %#x counter %#x:\n got %x\nwant %x", key, addr, counter, got, want)
		}
	})
}
