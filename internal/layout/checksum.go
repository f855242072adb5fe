package layout

import "hash/crc32"

// castagnoli is the CRC32C table behind Inode.Sum. The stdlib computes it
// with the SSE4.2 crc32 instruction on amd64 (and its counterparts on
// arm64, ppc64le and s390x), which caps it near 8 bytes a cycle; on amd64
// CPUs with AVX-512 VPCLMULQDQ, update folds long buffers with carry-less
// multiplies instead (checksum_amd64.s) and leaves only the short ones,
// and the sub-64-byte tail of a long one, to this table.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C (Castagnoli) of p: the value Inode.Sum
// records for a file's Size bytes and that a fault-in verifies every
// replica copy against. The polynomial, the initial value and the final
// XOR are those of crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)),
// whichever path computes it, so sums on disk never depend on the CPU.
func Checksum(p []byte) uint32 { return update(0, p) }
