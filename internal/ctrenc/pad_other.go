//go:build !amd64

package ctrenc

// hasAESNI is false off amd64: the pad goes through cipher.Block.
const hasAESNI = false

func encryptPad(rk *[176]byte, pad *[BlockSize]byte, addr, counter uint64) {
	panic("ctrenc: four-lane pad kernel is amd64-only")
}
