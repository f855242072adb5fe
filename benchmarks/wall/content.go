package main

import (
	"encoding/binary"
	"hash/crc32"
)

// File contents are a pure function of (seed, slot, version) and the byte
// offset, so any read — whole file or range — can be checked without
// keeping a copy: byte i of a file is byte i%8 of word(key, i/8).

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// fileKey derives the key all of one file version's bytes come from.
func fileKey(seed int64, slot, version int) uint64 {
	return mix64(mix64(uint64(seed)+0x9E3779B97F4A7C15)^uint64(slot)<<24^uint64(version)) | 1
}

func word(key uint64, k int64) uint64 {
	return mix64(key + uint64(k)*0x9E3779B97F4A7C15)
}

// fill writes the file's bytes [off, off+len(p)) into p.
func fill(p []byte, key uint64, off int64) {
	var w [8]byte
	for len(p) > 0 && off%8 != 0 {
		binary.LittleEndian.PutUint64(w[:], word(key, off/8))
		n := copy(p, w[off%8:])
		p, off = p[n:], off+int64(n)
	}
	k := off / 8
	for ; len(p) >= 8; p, k = p[8:], k+1 {
		binary.LittleEndian.PutUint64(p, word(key, k))
	}
	if len(p) > 0 {
		binary.LittleEndian.PutUint64(w[:], word(key, k))
		copy(p, w[:])
	}
}

// stampLen is how many bytes at each end of a reply every read checks.
const stampLen = 16

// checkEnds reports whether the first and last stampLen bytes of p are
// the file's bytes at [off, off+len(p)).
func checkEnds(p []byte, key uint64, off int64) bool {
	var want [stampLen]byte
	n := min(len(p), stampLen)
	fill(want[:n], key, off)
	if string(want[:n]) != string(p[:n]) {
		return false
	}
	tail := int64(len(p) - n)
	fill(want[:n], key, off+tail)
	return string(want[:n]) == string(p[tail:])
}

// sized returns buf with length n, reallocating only when it must grow.
func sized(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// rangeCRC is the CRC32C of the file's bytes [off, off+n), regenerated
// into scratch (grown as needed and returned for reuse).
func rangeCRC(scratch []byte, key uint64, off, n int64) (uint32, []byte) {
	scratch = sized(scratch, int(n))
	fill(scratch, key, off)
	return crc32.Checksum(scratch, castagnoli), scratch
}
