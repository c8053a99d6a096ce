package ctrenc

import (
	"crypto/cipher"
	"encoding/binary"
	"math/bits"
)

// padBlockCipher generates the pad of (addr, counter) one block at a time
// through b. Block i encrypts the IV (address, counter), both
// little-endian, with i XOR-folded into byte 15, the counter's top byte;
// the fold is not a CTR increment, and it must stay as it is for stored
// ciphertexts to stay readable. The IVs are encrypted in place in pad.
// This is the pad on CPUs without the four-lane kernel and the reference
// the kernel is tested against.
func padBlockCipher(b cipher.Block, pad *[BlockSize]byte, addr, counter uint64) {
	for i := 0; i < BlockSize; i += 16 {
		binary.LittleEndian.PutUint64(pad[i:], addr)
		binary.LittleEndian.PutUint64(pad[i+8:], counter^uint64(i/16)<<56)
		b.Encrypt(pad[i:i+16], pad[i:i+16])
	}
}

// expandKey128 expands an AES-128 key into its eleven round keys
// (FIPS-197 §5.2), stored as the 44 words w[0..43] in byte order, which is
// the layout AESENC takes its round-key operands in.
func expandKey128(key *[16]byte) (rk [176]byte) {
	copy(rk[:16], key[:])
	rcon := byte(1)
	for i := 16; i < len(rk); i += 4 {
		t := [4]byte(rk[i-4 : i])
		if i%16 == 0 {
			// RotWord, SubWord, then the round constant into the first byte.
			t = [4]byte{sbox(t[1]) ^ rcon, sbox(t[2]), sbox(t[3]), sbox(t[0])}
			rcon = gmul(rcon, 2)
		}
		for j := range t {
			rk[i+j] = rk[i-16+j] ^ t[j]
		}
	}
	return rk
}

// sbox is the AES S-box (FIPS-197 §5.1.1): the multiplicative inverse in
// GF(2^8), b^254 (0 maps to 0), then the affine transform.
func sbox(b byte) byte {
	inv, sq := byte(1), b
	for i := 0; i < 7; i++ { // 254 = 2 + 4 + ... + 128
		sq = gmul(sq, sq)
		inv = gmul(inv, sq)
	}
	return inv ^ bits.RotateLeft8(inv, 1) ^ bits.RotateLeft8(inv, 2) ^
		bits.RotateLeft8(inv, 3) ^ bits.RotateLeft8(inv, 4) ^ 0x63
}

// gmul multiplies in GF(2^8) modulo the AES polynomial x^8+x^4+x^3+x+1.
func gmul(a, b byte) (p byte) {
	for ; b != 0; b >>= 1 {
		if b&1 != 0 {
			p ^= a
		}
		a = a<<1 ^ 0x1b*(a>>7)
	}
	return p
}
