#include "textflag.h"

// laneIndex holds the block index of lanes 1..3 in byte 15 of each 16 bytes:
// XORing it into the IV is padBlockCipher's block-index fold.
DATA laneIndex<>+0(SB)/8, $0
DATA laneIndex<>+8(SB)/8, $0x0100000000000000
DATA laneIndex<>+16(SB)/8, $0
DATA laneIndex<>+24(SB)/8, $0x0200000000000000
DATA laneIndex<>+32(SB)/8, $0
DATA laneIndex<>+40(SB)/8, $0x0300000000000000
GLOBL laneIndex<>(SB), RODATA|NOPTR, $48

// One AES round on all four lanes: one round-key load, four AESENCs.
#define ROUND(off) \
	MOVUPS off(AX), X4; \
	AESENC X4, X0; \
	AESENC X4, X1; \
	AESENC X4, X2; \
	AESENC X4, X3

// func encryptPad(rk *[176]byte, pad *[64]byte, addr, counter uint64)
TEXT ·encryptPad(SB), NOSPLIT, $0-32
	MOVQ       rk+0(FP), AX
	MOVQ       pad+8(FP), DI
	MOVQ       addr+16(FP), X0
	MOVQ       counter+24(FP), X5
	PUNPCKLQDQ X5, X0                 // lane 0: (addr, counter)
	MOVOU      laneIndex<>+0(SB), X1
	MOVOU      laneIndex<>+16(SB), X2
	MOVOU      laneIndex<>+32(SB), X3
	PXOR       X0, X1
	PXOR       X0, X2
	PXOR       X0, X3
	MOVUPS     0(AX), X4
	PXOR       X4, X0
	PXOR       X4, X1
	PXOR       X4, X2
	PXOR       X4, X3
	ROUND(16)
	ROUND(32)
	ROUND(48)
	ROUND(64)
	ROUND(80)
	ROUND(96)
	ROUND(112)
	ROUND(128)
	ROUND(144)
	MOVUPS     160(AX), X4
	AESENCLAST X4, X0
	AESENCLAST X4, X1
	AESENCLAST X4, X2
	AESENCLAST X4, X3
	MOVUPS     X0, 0(DI)
	MOVUPS     X1, 16(DI)
	MOVUPS     X2, 32(DI)
	MOVUPS     X3, 48(DI)
	RET

// func cpuHasAESNI() bool
TEXT ·cpuHasAESNI(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET
