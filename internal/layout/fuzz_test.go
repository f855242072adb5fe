package layout

import (
	"reflect"
	"testing"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// fuzzGeometry is the disk shape every fuzz input is poured into: small
// enough that the corpus mutates quickly, big enough to hold a v2 layout
// with several control and checksum blocks.
const (
	fuzzBlockSize = 64
	fuzzBlocks    = 256
)

// fuzzSeedImage builds a valid formatted image (with a couple of live
// inodes and one checksum) so the fuzzer starts from structure, not noise.
func fuzzSeedImage(version int) []byte {
	dev, err := disk.NewMem(fuzzBlockSize, fuzzBlocks)
	if err != nil {
		panic(err)
	}
	if err := Format(dev, FormatConfig{Inodes: 20, Version: version}); err != nil {
		panic(err)
	}
	desc, err := ReadDescriptor(dev)
	if err != nil {
		panic(err)
	}
	tab := NewEmpty(desc)
	r := capability.Random{1, 2, 3, 4, 5, 6}
	if n, err := tab.Allocate(r, 0, 100); err == nil {
		_ = tab.SetSum(n, 0xFEEDFACE)
		_ = tab.WriteInode(dev, n)
	}
	r2 := capability.Random{9, 8, 7, 6, 5, 4}
	if n, err := tab.Allocate(r2, 2, 64); err == nil {
		_ = tab.WriteInode(dev, n)
	}
	return dev.Snapshot()
}

// FuzzLoadTable feeds arbitrary bytes to the versioned on-disk decoder.
// Two properties must hold for every input: Load never panics, and when it
// does accept an image, re-encoding the loaded table and loading the
// re-encoding yields the identical table (the decoder never invents state
// a round trip loses or mutates).
func FuzzLoadTable(f *testing.F) {
	f.Add(fuzzSeedImage(1))
	f.Add(fuzzSeedImage(2))
	f.Add(make([]byte, fuzzBlockSize*4))
	f.Add([]byte("BUL8 garbage that is far too short"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		dev, err := disk.NewMem(fuzzBlockSize, fuzzBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > fuzzBlockSize*fuzzBlocks {
			raw = raw[:fuzzBlockSize*fuzzBlocks]
		}
		if len(raw) > 0 {
			if err := dev.WriteAt(raw, 0); err != nil {
				t.Fatal(err)
			}
		}

		tab, _, err := Load(dev)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}

		// Round trip: write every control and checksum block the table
		// would emit onto a fresh device and load it back.
		re, err := disk.NewMem(fuzzBlockSize, fuzzBlocks)
		if err != nil {
			t.Fatal(err)
		}
		desc := tab.Desc()
		perBlock := uint32(fuzzBlockSize / InodeSize)
		for b := int64(0); b < desc.CtrlSize; b++ {
			data := make([]byte, fuzzBlockSize)
			blockNo, err := tab.copyInodeBlock(uint32(b)*perBlock, data)
			if err != nil {
				t.Fatalf("copying control block %d: %v", b, err)
			}
			if err := re.WriteAt(data, blockNo*fuzzBlockSize); err != nil {
				t.Fatalf("re-encoding control block %d: %v", b, err)
			}
		}
		if desc.Version >= 2 {
			perSum := uint32(fuzzBlockSize / SumEntrySize)
			for b := int64(0); b < desc.SumBlocks(); b++ {
				blockNo, data := tab.EncodeSumBlock(uint32(b) * perSum)
				if err := re.WriteAt(data, blockNo*fuzzBlockSize); err != nil {
					t.Fatalf("re-encoding checksum block %d: %v", b, err)
				}
			}
		}

		tab2, report2, err := Load(re)
		if err != nil {
			t.Fatalf("re-encoded image rejected: %v", err)
		}
		if len(report2.Problems) != 0 {
			t.Fatalf("re-encoded image has problems: %+v", report2.Problems)
		}
		if tab2.Desc() != desc {
			t.Fatalf("descriptor changed in round trip: %+v -> %+v", desc, tab2.Desc())
		}
		var a, b []Inode
		tab.ForEachUsed(func(n uint32, ino Inode) { a = append(a, ino) })
		tab2.ForEachUsed(func(n uint32, ino Inode) { b = append(b, ino) })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("table changed in round trip:\n  first:  %+v\n  second: %+v", a, b)
		}
		if tab.Live() != tab2.Live() || tab.FreeCount() != tab2.FreeCount() {
			t.Fatalf("accounting changed in round trip: live %d->%d free %d->%d",
				tab.Live(), tab2.Live(), tab.FreeCount(), tab2.FreeCount())
		}
	})
}
