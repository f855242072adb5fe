#include "textflag.h"

// CRC32C by carry-less folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009), widened
// to 512-bit lanes. In the bit-reflected domain a 128-bit lane X holds the
// polynomial lo(x)*x^64 + hi(x), lo being its first 8 bytes. Moving X
// forward by D bytes is
//
//	X*x^(8D) = clmul(lo, K_lo) ^ clmul(hi, K_hi)   (mod P)
//
// and the product then lines up with the 16 bytes found D bytes on, so the
// fold is one XOR with them. Each constant pair below is
//
//	K_lo = bitreverse64((x^(8D+31) mod P) << 32)
//	K_hi = bitreverse64((x^(8D-33) mod P) << 32)
//
// for P = 0x11EDC6F41; TestFoldConstants regenerates them from P.
DATA foldK<>+0x00(SB)/8, $0xdcb17aa4 // D = 256: four accumulators
DATA foldK<>+0x08(SB)/8, $0xb9e02b86
DATA foldK<>+0x10(SB)/8, $0x740eef02 // D = 64: one accumulator
DATA foldK<>+0x18(SB)/8, $0x9e4addf8
DATA foldK<>+0x20(SB)/8, $0x1c291d04 // D = 48: lane 0 into lane 3
DATA foldK<>+0x28(SB)/8, $0xddc0152b
DATA foldK<>+0x30(SB)/8, $0x3da6d0cb // D = 32: lane 1 into lane 3
DATA foldK<>+0x38(SB)/8, $0xba4fc28e
DATA foldK<>+0x40(SB)/8, $0xf20c0dfe // D = 16: lane 2 into lane 3
DATA foldK<>+0x48(SB)/8, $0x493c7d27
DATA foldK<>+0x50(SB)/8, $0 // lane 3 stays where it is
DATA foldK<>+0x58(SB)/8, $0
GLOBL foldK<>(SB), RODATA|NOPTR, $96

// func castagnoliVPCLMUL(crc uint32, p []byte) uint32
// len(p) is a multiple of 64 and at least 256.
TEXT ·castagnoliVPCLMUL(SB), NOSPLIT, $0-36
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX

	// The CRC register starts at ^crc, which is the same as XORing it
	// into the message's first four bytes.
	NOTL AX
	VMOVD AX, X4
	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ Z4, Z0, Z0
	ADDQ $256, SI
	SUBQ $256, CX

	// Four accumulators, each folded 256 bytes forward onto the next block.
	VBROADCASTI32X4 foldK<>+0x00(SB), Z8

loop256:
	CMPQ CX, $256
	JB   collapse
	VPCLMULQDQ $0x00, Z8, Z0, Z4
	VPCLMULQDQ $0x11, Z8, Z0, Z0
	VPTERNLOGD $0x96, 0(SI), Z4, Z0
	VPCLMULQDQ $0x00, Z8, Z1, Z5
	VPCLMULQDQ $0x11, Z8, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z5, Z1
	VPCLMULQDQ $0x00, Z8, Z2, Z6
	VPCLMULQDQ $0x11, Z8, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z6, Z2
	VPCLMULQDQ $0x00, Z8, Z3, Z7
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z7, Z3
	ADDQ $256, SI
	SUBQ $256, CX
	JMP  loop256

collapse:
	// Fold Z0 into Z1, Z1 into Z2 and Z2 into Z3, 64 bytes each.
	VBROADCASTI32X4 foldK<>+0x10(SB), Z8
	VPCLMULQDQ $0x00, Z8, Z0, Z4
	VPCLMULQDQ $0x11, Z8, Z0, Z0
	VPTERNLOGD $0x96, Z4, Z0, Z1
	VPCLMULQDQ $0x00, Z8, Z1, Z4
	VPCLMULQDQ $0x11, Z8, Z1, Z1
	VPTERNLOGD $0x96, Z4, Z1, Z2
	VPCLMULQDQ $0x00, Z8, Z2, Z4
	VPCLMULQDQ $0x11, Z8, Z2, Z2
	VPTERNLOGD $0x96, Z4, Z2, Z3

loop64:
	CMPQ CX, $64
	JB   reduce
	VPCLMULQDQ $0x00, Z8, Z3, Z4
	VPCLMULQDQ $0x11, Z8, Z3, Z3
	VPTERNLOGD $0x96, 0(SI), Z4, Z3
	ADDQ $64, SI
	SUBQ $64, CX
	JMP  loop64

reduce:
	// Fold lanes 0, 1 and 2 by 48, 32 and 16 bytes onto lane 3 (whose
	// constant is zero), then XOR the four lanes down to one.
	VMOVDQU64 foldK<>+0x20(SB), Z8
	VPCLMULQDQ $0x00, Z8, Z3, Z4
	VPCLMULQDQ $0x11, Z8, Z3, Z5
	VPXORQ Z5, Z4, Z4
	VEXTRACTI32X4 $3, Z3, X5
	VEXTRACTI64X4 $1, Z4, Y6
	VPXORQ Z6, Z4, Z4
	VEXTRACTI32X4 $1, Z4, X6
	VPTERNLOGD $0x96, Z6, Z5, Z4
	VMOVQ X4, AX
	VPEXTRQ $1, X4, BX
	VZEROUPPER

	// Reduce the 128-bit remainder modulo P: two CRC32Q steps from a zero
	// register compute (lo*x^64 + hi) * x^32 mod P.
	XORL DX, DX
	CRC32Q AX, DX
	CRC32Q BX, DX
	NOTL DX
	MOVL DX, ret+32(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
