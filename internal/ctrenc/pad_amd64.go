package ctrenc

// hasAESNI reports whether the CPU runs the four-lane pad kernel.
var hasAESNI = cpuHasAESNI()

// cpuHasAESNI reads the AES-NI bit (CPUID leaf 1, ECX bit 25).
func cpuHasAESNI() bool

// encryptPad writes the pad of (addr, counter) into pad under the AES-128
// round keys rk: it builds padBlockCipher's four IVs in registers and runs
// their four AESENC chains side by side.
//
//go:noescape
func encryptPad(rk *[176]byte, pad *[BlockSize]byte, addr, counter uint64)
