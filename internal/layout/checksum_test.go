package layout

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// stdCastagnoli is the reference the file checksum must equal bit for bit.
var stdCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// randomBytes returns n reproducible pseudo-random bytes.
func randomBytes(n int, seed int64) []byte {
	p := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

// Every checksum path is pinned on each length up to differentialMaxLen
// at each offset 0–63 (every tail and every misalignment of the 64-byte
// blocks), then on bigLengths: 1 MiB and its neighbours.
const differentialMaxLen = 4096

var bigLengths = []int{1<<20 - 77, 1<<20 - 63, 1<<20 - 1, 1 << 20, 1<<20 + 1, 1<<20 + 63, 1<<20 + 77}

// checkAgainstStdlib runs fn over the differential lengths from minLen up,
// with a zero and a random initial CRC, and fails on the first value that
// differs from crc32.Update.
func checkAgainstStdlib(t *testing.T, minLen int, fn func(crc uint32, p []byte) uint32) {
	t.Helper()
	buf := randomBytes(1<<20+77+64, 1)
	rng := rand.New(rand.NewSource(2))
	check := func(off, n int) {
		p := buf[off : off+n]
		for _, crc := range []uint32{0, rng.Uint32()} {
			if got, want := fn(crc, p), crc32.Update(crc, stdCastagnoli, p); got != want {
				t.Fatalf("len %d, offset %d, crc %#x: got %#08x, want %#08x", n, off, crc, got, want)
			}
		}
	}
	for n := minLen; n <= differentialMaxLen; n++ {
		for off := 0; off < 64; off++ {
			check(off, n)
		}
	}
	for _, n := range bigLengths {
		check(0, n)
		check(13, n)
	}
}

// TestChecksumMatchesStdlib pins the dispatching path — the vector kernel
// from its threshold up where the CPU has it, the stdlib everywhere else —
// to hash/crc32's Castagnoli.
func TestChecksumMatchesStdlib(t *testing.T) {
	checkAgainstStdlib(t, 0, update)
	for _, p := range [][]byte{nil, []byte("123456789"), randomBytes(1<<20, 3)} {
		if got, want := Checksum(p), crc32.Checksum(p, stdCastagnoli); got != want {
			t.Fatalf("Checksum of %d bytes = %#08x, want %#08x", len(p), got, want)
		}
	}
	// The CRC-32C check value from the catalogue of parametrised CRCs.
	if got := Checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("Checksum(\"123456789\") = %#08x, want 0xe3069283", got)
	}
}

// foldConstant returns bitreverse64((x^e mod P) << 32) for the CRC32C
// polynomial P = 0x11EDC6F41.
func foldConstant(e int) uint64 {
	const p = 0x11EDC6F41
	v := uint64(1)
	for i := 0; i < e; i++ {
		v <<= 1
		if v&(1<<32) != 0 {
			v ^= p
		}
	}
	return bits.Reverse64(v << 32)
}

// TestFoldConstants regenerates the kernel's fold constants from P and
// compares them with the DATA table in checksum_amd64.s, so a mistyped
// constant fails here rather than as a checksum error on a disk.
func TestFoldConstants(t *testing.T) {
	src, err := os.ReadFile("checksum_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	data := map[int]uint64{}
	re := regexp.MustCompile(`(?m)^DATA foldK<>\+0x([0-9a-f]+)\(SB\)/8, \$(0x[0-9a-f]+|0)\b`)
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		off, _ := strconv.ParseInt(m[1], 16, 64)
		v, err := strconv.ParseUint(m[2], 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		data[int(off)] = v
	}
	if len(data) != 12 {
		t.Fatalf("found %d DATA words in checksum_amd64.s, want 12", len(data))
	}
	// Offset of each pair in foldK and the distance, in bytes, it folds.
	for _, k := range []struct{ off, dist int }{{0x00, 256}, {0x10, 64}, {0x20, 48}, {0x30, 32}, {0x40, 16}} {
		lo, hi := foldConstant(8*k.dist+31), foldConstant(8*k.dist-33)
		if data[k.off] != lo || data[k.off+8] != hi {
			t.Errorf("D=%d: DATA holds %#x/%#x, want %#x/%#x", k.dist, data[k.off], data[k.off+8], lo, hi)
		}
	}
	if data[0x50] != 0 || data[0x58] != 0 {
		t.Errorf("lane 3's reduction constant must be zero, DATA holds %#x/%#x", data[0x50], data[0x58])
	}
}

// FuzzChecksum compares Checksum with the stdlib on arbitrary bytes, and
// on the same bytes tiled past 4 KiB so that the vector kernel sees them
// at every tail length.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("123456789"))
	f.Add(randomBytes(300, 4))
	f.Add(randomBytes(1025, 5))
	f.Fuzz(func(t *testing.T, p []byte) {
		if got, want := Checksum(p), crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)); got != want {
			t.Fatalf("Checksum of %d bytes = %#08x, want %#08x", len(p), got, want)
		}
		if len(p) == 0 {
			return
		}
		long := bytes.Repeat(p, 1+4096/len(p))
		if got, want := Checksum(long), crc32.Checksum(long, stdCastagnoli); got != want {
			t.Fatalf("Checksum of %d tiled bytes = %#08x, want %#08x", len(long), got, want)
		}
	})
}

// checksumSink keeps the benchmarked calls from being optimised away.
var checksumSink uint32

// BenchmarkChecksum times Checksum against the stdlib at a small file, a
// mid-size file and the cold_large_read file size.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{4 << 10, 64 << 10, 1 << 20} {
		p := randomBytes(n, 6)
		name := fmt.Sprintf("%dKiB", n>>10)
		b.Run(name+"/layout", func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(p)
			}
		})
		b.Run(name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = crc32.Checksum(p, stdCastagnoli)
			}
		})
	}
}
