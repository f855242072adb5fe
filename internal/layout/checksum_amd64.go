package layout

import "hash/crc32"

// vectorMin is the shortest buffer update hands to the vector kernel.
// The kernel takes 256 bytes and up, and in a tight benchmark loop it
// beats the stdlib from there; but a lone checksum timed after 20 µs to
// 1 ms of scalar work, as a server's are, was no faster at 256 bytes,
// mixed at 512 and faster from 1 KiB (EXPERIMENTS.md).
const vectorMin = 1024

// useVector is decided once, at package init, from CPUID and XCR0.
var useVector = hasVPCLMUL()

// update is crc32.Update on the Castagnoli table, through the vector
// kernel where the CPU has it and the buffer is long enough to pay.
func update(crc uint32, p []byte) uint32 {
	if useVector && len(p) >= vectorMin {
		return updateVector(crc, p)
	}
	return crc32.Update(crc, castagnoli, p)
}

// updateVector folds the 64-byte blocks of p through the VPCLMULQDQ
// kernel and the tail of fewer than 64 bytes through the stdlib.
// len(p) must be at least 256 and the CPU must pass hasVPCLMUL.
func updateVector(crc uint32, p []byte) uint32 {
	n := len(p) &^ 63
	crc = castagnoliVPCLMUL(crc, p[:n])
	return crc32.Update(crc, castagnoli, p[n:])
}

// hasVPCLMUL reports whether the CPU runs the kernel and the OS saves its
// state: AVX512F and VPCLMULQDQ (CPUID.7), OSXSAVE and SSE4.2 for the
// final CRC32Q (CPUID.1), and XMM, YMM, opmask and both halves of the ZMM
// state enabled in XCR0.
func hasVPCLMUL() bool {
	const (
		sse42     = 1 << 20 // CPUID.1:ECX
		osxsave   = 1 << 27 // CPUID.1:ECX
		avx512f   = 1 << 16 // CPUID.7:EBX
		vpclmul   = 1 << 10 // CPUID.7:ECX
		zmmStates = 0xe6    // XCR0: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(sse42|osxsave) != sse42|osxsave {
		return false
	}
	if _, ebx7, ecx7, _ := cpuid(7, 0); ebx7&avx512f == 0 || ecx7&vpclmul == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&zmmStates == zmmStates
}

// castagnoliVPCLMUL updates crc with p. len(p) must be a multiple of 64
// and at least 256.
//
//go:noescape
func castagnoliVPCLMUL(crc uint32, p []byte) uint32

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
