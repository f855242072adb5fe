package layout

import (
	"errors"
	"testing"
	"testing/quick"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

func newDev(t *testing.T, blocks int64) *disk.MemDisk {
	t.Helper()
	d, err := disk.NewMem(512, blocks)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	return d
}

func format(t *testing.T, dev disk.Device, inodes int) Descriptor {
	t.Helper()
	if err := Format(dev, FormatConfig{Inodes: inodes}); err != nil {
		t.Fatalf("Format: %v", err)
	}
	desc, err := ReadDescriptor(dev)
	if err != nil {
		t.Fatalf("ReadDescriptor: %v", err)
	}
	return desc
}

func rnd(t *testing.T) capability.Random {
	t.Helper()
	r, err := capability.NewRandom()
	if err != nil {
		t.Fatalf("NewRandom: %v", err)
	}
	return r
}

func TestFormatAndReadDescriptor(t *testing.T) {
	dev := newDev(t, 256)
	desc := format(t, dev, 100)
	if desc.BlockSize != 512 {
		t.Fatalf("BlockSize = %d, want 512", desc.BlockSize)
	}
	// 101 slots at 32 per block -> 4 control blocks.
	if desc.CtrlSize != 4 {
		t.Fatalf("CtrlSize = %d, want 4", desc.CtrlSize)
	}
	// 128 sum entries of 8 bytes -> 2 checksum blocks at the tail.
	if desc.SumBlocks() != 2 {
		t.Fatalf("SumBlocks = %d, want 2", desc.SumBlocks())
	}
	if desc.DataSize != 256-4-2 {
		t.Fatalf("DataSize = %d, want 250", desc.DataSize)
	}
	if desc.Version != 2 {
		t.Fatalf("Version = %d, want 2", desc.Version)
	}
	if desc.SumStart() != 4+250 {
		t.Fatalf("SumStart = %d, want 254", desc.SumStart())
	}
	if desc.MaxInodes() != 4*32-1 {
		t.Fatalf("MaxInodes = %d, want 127", desc.MaxInodes())
	}
	if desc.DataStart() != 4*512 {
		t.Fatalf("DataStart = %d, want 2048", desc.DataStart())
	}
	if desc.DataOffset(3) != 4*512+3*512 {
		t.Fatalf("DataOffset(3) = %d", desc.DataOffset(3))
	}
}

func TestReadDescriptorUnformatted(t *testing.T) {
	dev := newDev(t, 16)
	if _, err := ReadDescriptor(dev); !errors.Is(err, ErrNotFormatted) {
		t.Fatalf("err = %v, want ErrNotFormatted", err)
	}
}

func TestFormatErrors(t *testing.T) {
	dev := newDev(t, 4)
	// 2000 inodes need 63 control blocks; the disk has 4.
	if err := Format(dev, FormatConfig{Inodes: 2000}); err == nil {
		t.Fatal("Format on a too-small disk succeeded")
	}
	if err := Format(dev, FormatConfig{Inodes: 0}); err == nil {
		t.Fatal("Format with zero inodes succeeded")
	}
}

func TestInodeBlocks(t *testing.T) {
	cases := []struct {
		size uint32
		want int64
	}{
		{0, 1}, {1, 1}, {511, 1}, {512, 1}, {513, 2}, {1024, 2}, {1025, 3},
	}
	for _, c := range cases {
		ino := Inode{Size: c.size}
		if got := ino.Blocks(512); got != c.want {
			t.Errorf("Blocks(size=%d) = %d, want %d", c.size, got, c.want)
		}
	}
}

func TestAllocateGetFree(t *testing.T) {
	dev := newDev(t, 64)
	desc := format(t, dev, 30)
	tab := NewEmpty(desc)

	r := rnd(t)
	n, err := tab.Allocate(r, 5, 1000)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if n != 1 {
		t.Fatalf("first inode = %d, want 1", n)
	}
	ino, err := tab.Get(n)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if ino.Random != r || ino.FirstBlock != 5 || ino.Size != 1000 {
		t.Fatalf("Get = %+v", ino)
	}
	if tab.Live() != 1 {
		t.Fatalf("Live = %d, want 1", tab.Live())
	}

	if err := tab.Free(n); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if _, err := tab.Get(n); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Get(freed) err = %v, want ErrBadInode", err)
	}
	if tab.Live() != 0 {
		t.Fatalf("Live = %d, want 0", tab.Live())
	}
	// Freed inode is reused first (lowest free number).
	n2, err := tab.Allocate(rnd(t), 9, 1)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if n2 != 1 {
		t.Fatalf("reallocated inode = %d, want 1", n2)
	}
}

func TestAllocateRejectsZeroRandom(t *testing.T) {
	tab := NewEmpty(Descriptor{BlockSize: 512, CtrlSize: 1, DataSize: 10})
	if _, err := tab.Allocate(capability.Random{}, 0, 0); err == nil {
		t.Fatal("Allocate with zero random succeeded")
	}
}

func TestAllocateExhaustion(t *testing.T) {
	// 1 control block of 512 bytes = 32 slots = 31 file inodes.
	tab := NewEmpty(Descriptor{BlockSize: 512, CtrlSize: 1, DataSize: 100})
	for i := 0; i < 31; i++ {
		if _, err := tab.Allocate(rnd(t), uint32(i), 1); err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
	}
	if _, err := tab.Allocate(rnd(t), 99, 1); !errors.Is(err, ErrNoFreeInode) {
		t.Fatalf("err = %v, want ErrNoFreeInode", err)
	}
}

func TestGetErrors(t *testing.T) {
	tab := NewEmpty(Descriptor{BlockSize: 512, CtrlSize: 1, DataSize: 10})
	if _, err := tab.Get(0); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Get(0) err = %v", err)
	}
	if _, err := tab.Get(9999); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Get(9999) err = %v", err)
	}
	if err := tab.Free(0); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Free(0) err = %v", err)
	}
	if err := tab.Free(3); !errors.Is(err, ErrBadInode) {
		t.Fatalf("Free(free inode) err = %v", err)
	}
	if err := tab.SetCacheIndex(3, 1); !errors.Is(err, ErrBadInode) {
		t.Fatalf("SetCacheIndex(free) err = %v", err)
	}
}

func TestWriteInodeAndLoad(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)

	r1, r2 := rnd(t), rnd(t)
	n1, err := tab.Allocate(r1, 0, 700) // blocks 0-1
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	n2, err := tab.Allocate(r2, 2, 512) // block 2
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.WriteInode(dev, n1); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	if err := tab.WriteInode(dev, n2); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}

	loaded, report, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if report.Live != 2 || len(report.Problems) != 0 {
		t.Fatalf("report = %+v, want 2 live, no problems", report)
	}
	got1, err := loaded.Get(n1)
	if err != nil {
		t.Fatalf("Get(n1): %v", err)
	}
	if got1.Random != r1 || got1.FirstBlock != 0 || got1.Size != 700 {
		t.Fatalf("loaded inode 1 = %+v", got1)
	}
	got2, err := loaded.Get(n2)
	if err != nil {
		t.Fatalf("Get(n2): %v", err)
	}
	if got2.Random != r2 || got2.FirstBlock != 2 || got2.Size != 512 {
		t.Fatalf("loaded inode 2 = %+v", got2)
	}
}

func TestLoadClearsCacheIndex(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)
	n, err := tab.Allocate(rnd(t), 0, 100)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.SetCacheIndex(n, 7); err != nil {
		t.Fatalf("SetCacheIndex: %v", err)
	}
	if err := tab.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	loaded, _, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ino, err := loaded.Get(n)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if ino.CacheIndex != 0 {
		t.Fatalf("CacheIndex = %d after load, want 0", ino.CacheIndex)
	}
}

func TestLoadDetectsOutOfBounds(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)
	// A file claiming to live past the data area.
	n, err := tab.Allocate(rnd(t), uint32(desc.DataSize)-1, 4096)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	_, report, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(report.Problems) != 1 || report.Problems[0].Inode != n {
		t.Fatalf("report = %+v, want one problem on inode %d", report, n)
	}
	if report.Live != 0 {
		t.Fatalf("Live = %d, want 0", report.Live)
	}
}

func TestLoadDetectsOverlap(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)
	n1, err := tab.Allocate(rnd(t), 0, 2048) // blocks 0-3
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	n2, err := tab.Allocate(rnd(t), 2, 512) // block 2: overlaps n1
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.WriteInode(dev, n1); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	if err := tab.WriteInode(dev, n2); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	loaded, report, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(report.Problems) != 1 {
		t.Fatalf("problems = %+v, want exactly one", report.Problems)
	}
	if report.Problems[0].Inode != n2 {
		t.Fatalf("zeroed inode %d, want the later one %d", report.Problems[0].Inode, n2)
	}
	if _, err := loaded.Get(n1); err != nil {
		t.Fatalf("surviving inode unreadable: %v", err)
	}
	if _, err := loaded.Get(n2); err == nil {
		t.Fatal("overlapping inode survived the scan")
	}
}

func TestLoadZeroByteFileOccupiesABlock(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)
	// Two zero-byte files on the same block must be flagged as overlapping.
	n1, err := tab.Allocate(rnd(t), 0, 0)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	n2, err := tab.Allocate(rnd(t), 0, 0)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.WriteInode(dev, n1); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	if err := tab.WriteInode(dev, n2); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	_, report, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(report.Problems) != 1 {
		t.Fatalf("problems = %+v, want one overlap", report.Problems)
	}
}

func TestForEachUsedOrder(t *testing.T) {
	tab := NewEmpty(Descriptor{BlockSize: 512, CtrlSize: 2, DataSize: 100})
	for i := 0; i < 5; i++ {
		if _, err := tab.Allocate(rnd(t), uint32(i*2), 100); err != nil {
			t.Fatalf("Allocate: %v", err)
		}
	}
	if err := tab.Free(3); err != nil {
		t.Fatalf("Free: %v", err)
	}
	var seen []uint32
	tab.ForEachUsed(func(n uint32, _ Inode) { seen = append(seen, n) })
	want := []uint32{1, 2, 4, 5}
	if len(seen) != len(want) {
		t.Fatalf("seen = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("seen = %v, want %v", seen, want)
		}
	}
}

func TestInodeBlockMapping(t *testing.T) {
	tab := NewEmpty(Descriptor{BlockSize: 512, CtrlSize: 4, DataSize: 100})
	// 32 inodes per 512-byte block.
	cases := []struct {
		n    uint32
		want int64
	}{
		{1, 0}, {31, 0}, {32, 1}, {63, 1}, {64, 2},
	}
	for _, c := range cases {
		if got := tab.InodeBlock(c.n); got != c.want {
			t.Errorf("InodeBlock(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEncodeInodeBlockPreservesDescriptor(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)
	n, err := tab.Allocate(rnd(t), 3, 42)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Inode 1 lives in block 0 together with the descriptor; writing it
	// back must not clobber the descriptor.
	if err := tab.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	got, err := ReadDescriptor(dev)
	if err != nil {
		t.Fatalf("descriptor destroyed by inode write: %v", err)
	}
	if got != desc {
		t.Fatalf("descriptor = %+v, want %+v", got, desc)
	}
}

func TestSumPersistence(t *testing.T) {
	dev := newDev(t, 128)
	desc := format(t, dev, 60)
	tab := NewEmpty(desc)
	if !tab.SumsPersisted() {
		t.Fatal("v2 table should persist sums")
	}
	n, err := tab.Allocate(rnd(t), 0, 100)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.SetSum(n, 0xDEADBEEF); err != nil {
		t.Fatalf("SetSum: %v", err)
	}
	if err := tab.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	if tab.DirtySums() != 1 {
		t.Fatalf("DirtySums = %d, want 1", tab.DirtySums())
	}
	if wrote, err := tab.FlushSums(dev); wrote != 1 || err != nil {
		t.Fatalf("FlushSums = (%d, %v), want (1, nil)", wrote, err)
	}
	if tab.DirtySums() != 0 {
		t.Fatalf("DirtySums after flush = %d, want 0", tab.DirtySums())
	}
	loaded, _, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	ino, err := loaded.Get(n)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !ino.HasSum || ino.Sum != 0xDEADBEEF {
		t.Fatalf("loaded sum = (%v, %08x), want (true, deadbeef)", ino.HasSum, ino.Sum)
	}

	// Freeing the inode and reallocating its slot must not resurrect the
	// old checksum: the on-disk entry is never cleared, but its tag no
	// longer matches the new file's random number.
	if err := loaded.Free(n); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := loaded.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode after free: %v", err)
	}
	re, _, err := Load(dev)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	n2, err := re.Allocate(rnd(t), 0, 100)
	if err != nil || n2 != n {
		t.Fatalf("Allocate = (%d, %v), want reuse of %d", n2, err, n)
	}
	if ino, _ := re.Get(n2); ino.HasSum {
		t.Fatal("stale checksum survived a free/realloc cycle")
	}
	if err := re.WriteInode(dev, n2); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	again, _, err := Load(dev)
	if err != nil {
		t.Fatalf("third load: %v", err)
	}
	if ino, _ := again.Get(n2); ino.HasSum {
		t.Fatal("stale on-disk checksum entry matched a reallocated inode")
	}
}

func TestSetSumErrors(t *testing.T) {
	tab := NewEmpty(Descriptor{BlockSize: 512, CtrlSize: 1, DataSize: 10, Version: 2})
	if err := tab.SetSum(0, 1); !errors.Is(err, ErrBadInode) {
		t.Fatalf("SetSum(0) err = %v", err)
	}
	if err := tab.SetSum(3, 1); !errors.Is(err, ErrBadInode) {
		t.Fatalf("SetSum(free) err = %v", err)
	}
}

func TestV1LoadsAndUpgradesInPlace(t *testing.T) {
	dev := newDev(t, 256)
	if err := Format(dev, FormatConfig{Inodes: 100, Version: 1}); err != nil {
		t.Fatalf("Format v1: %v", err)
	}
	desc, err := ReadDescriptor(dev)
	if err != nil {
		t.Fatalf("ReadDescriptor: %v", err)
	}
	if desc.Version != 1 || desc.DataSize != 256-4 || desc.SumBlocks() != 0 {
		t.Fatalf("v1 desc = %+v", desc)
	}
	tab := NewEmpty(desc)
	r := rnd(t)
	n, err := tab.Allocate(r, 0, 700)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	if tab.SumsPersisted() {
		t.Fatal("v1 table claims persistent sums")
	}
	// RAM-only sums still work on v1 (WriteSum is a no-op).
	if err := tab.SetSum(n, 42); err != nil {
		t.Fatalf("SetSum on v1: %v", err)
	}
	if err := tab.WriteSum(dev, n); err != nil {
		t.Fatalf("WriteSum on v1: %v", err)
	}

	loaded, report, err := Load(dev)
	if err != nil || report.Live != 1 {
		t.Fatalf("Load v1 = (%+v, %v)", report, err)
	}
	upgraded, err := loaded.UpgradeInPlace(dev)
	if err != nil {
		t.Fatalf("UpgradeInPlace: %v", err)
	}
	if !upgraded {
		t.Fatal("upgrade did not happen on an empty-tailed disk")
	}
	got, err := ReadDescriptor(dev)
	if err != nil {
		t.Fatalf("ReadDescriptor after upgrade: %v", err)
	}
	if got.Version != 2 || got.DataSize != 256-4-got.SumBlocks() {
		t.Fatalf("upgraded desc = %+v", got)
	}
	// A second upgrade is a no-op.
	if again, err := loaded.UpgradeInPlace(dev); again || err != nil {
		t.Fatalf("second upgrade = (%v, %v), want (false, nil)", again, err)
	}

	// The file survived, and sums now persist.
	re, report2, err := Load(dev)
	if err != nil || report2.Live != 1 || len(report2.Problems) != 0 {
		t.Fatalf("reload after upgrade = (%+v, %v)", report2, err)
	}
	ino, err := re.Get(n)
	if err != nil || ino.Random != r || ino.Size != 700 {
		t.Fatalf("file lost in upgrade: %+v, %v", ino, err)
	}
	if err := re.SetSum(n, 7); err != nil {
		t.Fatalf("SetSum: %v", err)
	}
	if err := re.WriteSum(dev, n); err != nil {
		t.Fatalf("WriteSum: %v", err)
	}
	final, _, err := Load(dev)
	if err != nil {
		t.Fatalf("final load: %v", err)
	}
	if ino, _ := final.Get(n); !ino.HasSum || ino.Sum != 7 {
		t.Fatalf("sum not persisted after upgrade: %+v", ino)
	}
}

func TestUpgradeBlockedByTailFile(t *testing.T) {
	dev := newDev(t, 256)
	if err := Format(dev, FormatConfig{Inodes: 100, Version: 1}); err != nil {
		t.Fatalf("Format v1: %v", err)
	}
	desc, err := ReadDescriptor(dev)
	if err != nil {
		t.Fatalf("ReadDescriptor: %v", err)
	}
	tab := NewEmpty(desc)
	// A file on the very last data block blocks the tail carve-out.
	n, err := tab.Allocate(rnd(t), uint32(desc.DataSize-1), 10)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := tab.WriteInode(dev, n); err != nil {
		t.Fatalf("WriteInode: %v", err)
	}
	loaded, _, err := Load(dev)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	upgraded, err := loaded.UpgradeInPlace(dev)
	if err != nil {
		t.Fatalf("UpgradeInPlace: %v", err)
	}
	if upgraded {
		t.Fatal("upgrade claimed success with a file in the checksum area")
	}
	got, err := ReadDescriptor(dev)
	if err != nil || got.Version != 1 {
		t.Fatalf("desc after blocked upgrade = %+v, %v; want intact v1", got, err)
	}
}

// Property: allocate/free round trips keep the table consistent: Live +
// FreeCount is constant and no two live inodes share a number.
func TestQuickTableAccounting(t *testing.T) {
	desc := Descriptor{BlockSize: 512, CtrlSize: 2, DataSize: 1000}
	f := func(ops []bool) bool {
		tab := NewEmpty(desc)
		total := tab.FreeCount()
		var livei []uint32
		next := uint32(0)
		for _, alloc := range ops {
			if alloc {
				r, err := capability.NewRandom()
				if err != nil {
					return false
				}
				n, err := tab.Allocate(r, next, 1)
				if errors.Is(err, ErrNoFreeInode) {
					continue
				}
				if err != nil {
					return false
				}
				next += 1
				livei = append(livei, n)
			} else if len(livei) > 0 {
				n := livei[0]
				livei = livei[1:]
				if err := tab.Free(n); err != nil {
					return false
				}
			}
			if tab.Live()+tab.FreeCount() != total {
				return false
			}
			if tab.Live() != len(livei) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: an inode encode/decode round trip through a block is lossless
// (modulo the cache index, which is cleared on disk).
func TestQuickInodePersistence(t *testing.T) {
	f := func(randoms [][6]byte) bool {
		dev, err := disk.NewMem(512, 256)
		if err != nil {
			return false
		}
		if err := Format(dev, FormatConfig{Inodes: 100}); err != nil {
			return false
		}
		desc, err := ReadDescriptor(dev)
		if err != nil {
			return false
		}
		tab := NewEmpty(desc)
		type rec struct {
			n    uint32
			r    capability.Random
			size uint32
		}
		var recs []rec
		var block uint32
		for _, rb := range randoms {
			r := capability.Random(rb)
			if r.IsZero() {
				continue
			}
			size := uint32(len(recs)*13 + 1)
			if int64(block)+(Inode{Size: size}).Blocks(512) > desc.DataSize {
				break
			}
			n, err := tab.Allocate(r, block, size)
			if err != nil {
				break
			}
			block += uint32((Inode{Size: size}).Blocks(512)) // packed contiguously: never overlaps
			if err := tab.WriteInode(dev, n); err != nil {
				return false
			}
			recs = append(recs, rec{n: n, r: r, size: size})
		}
		loaded, report, err := Load(dev)
		if err != nil || len(report.Problems) != 0 {
			return false
		}
		for _, rc := range recs {
			got, err := loaded.Get(rc.n)
			if err != nil {
				return false
			}
			if got.Random != rc.r || got.Size != rc.size {
				return false
			}
		}
		return loaded.Live() == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
