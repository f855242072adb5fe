package layout

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// The table keeps its control area as the disk holds it and hands out
// inodes from a bitmap. These tests run the encoder and the sorted free
// list it replaced beside it, as an oracle: every block the table writes
// must be byte-identical to the old encoding of the same state, and every
// allocation must return the old free list's number.

// oracleTable is the inode table as it was before the disk image: inodes
// in a slice, free numbers in an ascending slice, blocks encoded from the
// slice at write time.
type oracleTable struct {
	desc   Descriptor
	inodes []Inode
	free   []uint32
}

func oracleEmpty(desc Descriptor) *oracleTable {
	max := desc.MaxInodes()
	o := &oracleTable{desc: desc, inodes: make([]Inode, max+1)}
	for n := 1; n <= max; n++ {
		o.free = append(o.free, uint32(n))
	}
	return o
}

// oracleLoad is the old Load's inode scan (the checksum area does not
// reach a control block and is left out).
func oracleLoad(dev disk.Device) (*oracleTable, []ScanProblem, error) {
	desc, err := ReadDescriptor(dev)
	if err != nil {
		return nil, nil, err
	}
	bs := desc.BlockSize
	raw := make([]byte, desc.CtrlSize*int64(bs))
	if err := dev.ReadAt(raw, 0); err != nil {
		return nil, nil, err
	}
	max := desc.MaxInodes()
	o := &oracleTable{desc: desc, inodes: make([]Inode, max+1)}
	var problems []ScanProblem
	type span struct {
		start, count int64
		n            uint32
	}
	var spans []span
	for n := 1; n <= max; n++ {
		ino := decodeInode(raw[n*InodeSize : (n+1)*InodeSize])
		ino.CacheIndex = 0
		if !ino.InUse() {
			o.free = append(o.free, uint32(n))
			continue
		}
		blocks := ino.Blocks(bs)
		if int64(ino.FirstBlock)+blocks > desc.DataSize {
			problems = append(problems, ScanProblem{Inode: uint32(n)})
			o.free = append(o.free, uint32(n))
			continue
		}
		spans = append(spans, span{start: int64(ino.FirstBlock), count: blocks, n: uint32(n)})
		o.inodes[n] = ino
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].n < spans[j].n
	})
	end := int64(-1)
	for _, s := range spans {
		if s.start < end {
			problems = append(problems, ScanProblem{Inode: s.n})
			o.inodes[s.n] = Inode{}
			o.free = append(o.free, s.n)
			continue
		}
		if e := s.start + s.count; e > end {
			end = e
		}
	}
	sort.Slice(o.free, func(i, j int) bool { return o.free[i] < o.free[j] })
	return o, problems, nil
}

func (o *oracleTable) valid(n uint32) bool {
	return n != 0 && int(n) < len(o.inodes) && o.inodes[n].InUse()
}

func (o *oracleTable) allocate(r capability.Random, firstBlock, size uint32) (uint32, error) {
	if len(o.free) == 0 {
		return 0, ErrNoFreeInode
	}
	n := o.free[0]
	o.free = o.free[1:]
	o.inodes[n] = Inode{Random: r, FirstBlock: firstBlock, Size: size}
	return n, nil
}

func (o *oracleTable) release(n uint32) error {
	if !o.valid(n) {
		return ErrBadInode
	}
	o.inodes[n] = Inode{}
	i := sort.Search(len(o.free), func(i int) bool { return o.free[i] >= n })
	o.free = append(o.free, 0)
	copy(o.free[i+1:], o.free[i:])
	o.free[i] = n
	return nil
}

// upgrade is UpgradeInPlace's decision and descriptor change.
func (o *oracleTable) upgrade() bool {
	if o.desc.Version >= 2 {
		return false
	}
	bs := o.desc.BlockSize
	newDataSize := o.desc.DataSize - sumBlocksFor(bs, o.desc.CtrlSize)
	if newDataSize <= 0 {
		return false
	}
	for _, ino := range o.inodes[1:] {
		if ino.InUse() && int64(ino.FirstBlock)+ino.Blocks(bs) > newDataSize {
			return false
		}
	}
	o.desc.Version = 2
	o.desc.DataSize = newDataSize
	return true
}

// encodeInodeBlock is the encoder the disk image replaced, verbatim.
func (o *oracleTable) encodeInodeBlock(n uint32, data []byte) (blockNo int64) {
	bs := o.desc.BlockSize
	blockNo = int64(n) * InodeSize / int64(bs)
	perBlock := bs / InodeSize
	first := int(blockNo) * perBlock
	for i := 0; i < perBlock; i++ {
		slot := first + i
		b := data[i*InodeSize : (i+1)*InodeSize]
		switch {
		case slot == 0:
			clear(b)
			descriptorBytes(o.desc, b)
		case slot >= len(o.inodes):
			clear(b)
		default:
			ino := o.inodes[slot]
			ino.CacheIndex = 0
			ino.encode(b)
		}
	}
	return blockNo
}

// diffImage compares every control block the table would write with the
// oracle's encoding of the same state.
func diffImage(tab *Table, o *oracleTable) error {
	bs := tab.Desc().BlockSize
	perBlock := uint32(bs / InodeSize)
	got, want := make([]byte, bs), make([]byte, bs)
	for b := int64(0); b < tab.Desc().CtrlSize; b++ {
		gb, err := tab.copyInodeBlock(uint32(b)*perBlock, got)
		if err != nil {
			return err
		}
		if wb := o.encodeInodeBlock(uint32(b)*perBlock, want); gb != wb || !bytes.Equal(got, want) {
			return fmt.Errorf("control block %d (image %d, oracle %d):\n  image  %x\n  oracle %x", b, gb, wb, got, want)
		}
	}
	return nil
}

// checkWritten writes inode n's block through WriteInode and compares the
// block on dev with the oracle's encoding.
func checkWritten(tab *Table, o *oracleTable, dev *disk.MemDisk, n uint32) error {
	if err := tab.WriteInode(dev, n); err != nil {
		return err
	}
	bs := tab.Desc().BlockSize
	got, want := make([]byte, bs), make([]byte, bs)
	blockNo := o.encodeInodeBlock(n, want)
	if err := dev.ReadAt(got, blockNo*int64(bs)); err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("inode %d's block %d on disk:\n  got  %x\n  want %x", n, blockNo, got, want)
	}
	return nil
}

// junkControlArea fills dev's inode table with live inodes that are in
// bounds, out of bounds or overlapping, cache-index bytes that must not
// survive a load, and free inodes whose other fields are not zero.
func junkControlArea(rng *rand.Rand, dev *disk.MemDisk, desc Descriptor) error {
	bs := desc.BlockSize
	raw := make([]byte, desc.CtrlSize*int64(bs))
	if err := dev.ReadAt(raw, 0); err != nil {
		return err
	}
	for n := 1; n <= desc.MaxInodes(); n++ {
		b := raw[n*InodeSize : (n+1)*InodeSize]
		if rng.IntN(3) == 0 {
			continue // a clean free inode
		}
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		switch rng.IntN(5) {
		case 0: // free, with junk after the zero random number
			clear(b[0:6])
		case 1: // past the data area
			b[8], b[9], b[10], b[11] = 0x7f, 0xff, 0, 0
		default: // in bounds, possibly overlapping a neighbour
			fb := uint32(rng.IntN(int(desc.DataSize)))
			size := uint32(rng.IntN(3 * bs))
			b[8], b[9], b[10], b[11] = byte(fb>>24), byte(fb>>16), byte(fb>>8), byte(fb)
			b[12], b[13], b[14], b[15] = byte(size>>24), byte(size>>16), byte(size>>8), byte(size)
		}
	}
	return dev.WriteAt(raw, 0)
}

// TestTableImageMatchesEncodeOracle runs 500 seeded sequences of table
// operations against the oracle, from three starting points: a fresh
// table, a Load of an inode table with scan problems, and a v1 disk loaded
// and upgraded in place.
func TestTableImageMatchesEncodeOracle(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		if err := runImageOracle(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runImageOracle(seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x1b07))
	bs := []int{64, 512}[rng.IntN(2)]
	inodes := 20 + rng.IntN(120)
	dev, err := disk.NewMem(bs, 2048)
	if err != nil {
		return err
	}
	version := 2
	start := rng.IntN(3) // 0 fresh, 1 load with scan problems, 2 v1 load + upgrade
	if start == 2 {
		version = 1
	}
	if err := Format(dev, FormatConfig{Inodes: inodes, Version: version}); err != nil {
		return err
	}
	desc, err := ReadDescriptor(dev)
	if err != nil {
		return err
	}

	var tab *Table
	var o *oracleTable
	if start == 0 {
		tab, o = NewEmpty(desc), oracleEmpty(desc)
	} else {
		if err := junkControlArea(rng, dev, desc); err != nil {
			return err
		}
		var fixes []uint32
		if tab, o, fixes, err = loadBoth(dev); err != nil {
			return err
		}
		for _, n := range fixes {
			if err := checkWritten(tab, o, dev, n); err != nil {
				return fmt.Errorf("persisting scan fix: %w", err)
			}
		}
		if start == 2 {
			up, err := tab.UpgradeInPlace(dev)
			if err != nil {
				return err
			}
			if want := o.upgrade(); up != want {
				return fmt.Errorf("UpgradeInPlace = %v, oracle %v", up, want)
			}
			if err := diffImage(tab, o); err != nil {
				return fmt.Errorf("after UpgradeInPlace: %w", err)
			}
			if err := checkWritten(tab, o, dev, 0); err != nil {
				return fmt.Errorf("descriptor block: %w", err)
			}
		}
	}

	max := uint32(desc.MaxInodes())
	pick := func() uint32 { return uint32(rng.IntN(int(max) + 2)) } // 0 and max+1 are never valid
	for step := 0; step < 80; step++ {
		var n uint32
		var got, want error
		switch op := rng.IntN(10); {
		case op < 4:
			var r capability.Random
			for r.IsZero() {
				for i := range r {
					r[i] = byte(rng.Uint32())
				}
			}
			fb, size := uint32(rng.IntN(1<<20)), rng.Uint32()
			var wantN uint32
			n, got = tab.Allocate(r, fb, size)
			wantN, want = o.allocate(r, fb, size)
			if n != wantN {
				return fmt.Errorf("step %d: Allocate = %d, oracle %d", step, n, wantN)
			}
		case op < 7:
			n = pick()
			got, want = tab.Free(n), o.release(n)
		case op == 7:
			n = pick()
			fb := uint32(rng.IntN(1 << 20))
			got = tab.Retarget(n, fb)
			if want = ErrBadInode; o.valid(n) {
				o.inodes[n].FirstBlock, want = fb, nil
			}
		case op == 8:
			n = pick()
			idx := uint16(rng.Uint32())
			got = tab.SetCacheIndex(n, idx)
			if want = ErrBadInode; o.valid(n) {
				o.inodes[n].CacheIndex, want = idx, nil
			}
		default:
			n = pick()
			sum := rng.Uint32()
			got = tab.SetSum(n, sum)
			if want = ErrBadInode; o.valid(n) {
				o.inodes[n].Sum, o.inodes[n].HasSum, want = sum, true, nil
			}
		}
		if (got == nil) != (want == nil) || (want != nil && !errors.Is(got, want)) {
			return fmt.Errorf("step %d on inode %d: error %v, oracle %v", step, n, got, want)
		}
		if got == nil {
			if err := checkWritten(tab, o, dev, n); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
		if err := diffImage(tab, o); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if tab.FreeCount() != len(o.free) {
			return fmt.Errorf("step %d: FreeCount %d, oracle %d", step, tab.FreeCount(), len(o.free))
		}
	}

	// The disk now holds every block the sequence wrote, overlaps and
	// all: loading it again is one more scan to check against the oracle.
	_, _, _, err = loadBoth(dev)
	return err
}

// loadBoth loads dev into a table and into the oracle, checks that both
// found the same scan problems and agree on every control block, and
// returns the inodes the scan zeroed.
func loadBoth(dev *disk.MemDisk) (*Table, *oracleTable, []uint32, error) {
	tab, report, err := Load(dev)
	if err != nil {
		return nil, nil, nil, err
	}
	o, problems, err := oracleLoad(dev)
	if err != nil {
		return nil, nil, nil, err
	}
	var got, want []uint32
	for _, p := range report.Problems {
		got = append(got, p.Inode)
	}
	for _, p := range problems {
		want = append(want, p.Inode)
	}
	if !reflect.DeepEqual(got, want) {
		return nil, nil, nil, fmt.Errorf("scan problems %v, oracle %v", got, want)
	}
	if err := diffImage(tab, o); err != nil {
		return nil, nil, nil, fmt.Errorf("after Load: %w", err)
	}
	if tab.FreeCount() != len(o.free) {
		return nil, nil, nil, fmt.Errorf("after Load: FreeCount %d, oracle %d", tab.FreeCount(), len(o.free))
	}
	return tab, o, got, nil
}

// sameLive compares the persisted fields of every live inode.
func sameLive(a, b *Table) error {
	type rec struct {
		n   uint32
		ino Inode
	}
	collect := func(t *Table) []rec {
		var out []rec
		t.ForEachUsed(func(n uint32, ino Inode) {
			out = append(out, rec{n, Inode{Random: ino.Random, FirstBlock: ino.FirstBlock, Size: ino.Size}})
		})
		return out
	}
	if ra, rb := collect(a), collect(b); !reflect.DeepEqual(ra, rb) {
		return fmt.Errorf("live inodes differ:\n  %+v\n  %+v", ra, rb)
	}
	return nil
}

// TestTableConcurrentAllocFreeWrite races creates, retargets and deletes
// against inode-block writes to two replicas, each serialized by its own
// mutex and buffer as the engine's inoMu stripes are. The block is copied
// from the image inside that mutex, so the last write of a block
// publishes every change made before it: at the end both disks, the
// image and a fresh Load agree.
func TestTableConcurrentAllocFreeWrite(t *testing.T) {
	const workers, rounds = 8, 300
	devs := [2]*disk.MemDisk{newDev(t, 512), newDev(t, 512)}
	desc := format(t, devs[0], 200)
	format(t, devs[1], 200)
	tab := NewEmpty(desc)
	var mu [2]sync.Mutex
	bufs := [2][]byte{make([]byte, desc.BlockSize), make([]byte, desc.BlockSize)}
	writeBoth := func(n uint32) error {
		for i := range devs {
			mu[i].Lock()
			err := tab.WriteInodeBuf(devs[i], n, bufs[i])
			mu[i].Unlock()
			if err != nil {
				return err
			}
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			var mine []uint32
			for i := 0; i < rounds; i++ {
				if len(mine) == 0 || rng.IntN(2) == 0 {
					r := capability.Random{byte(w + 1), byte(i), byte(i >> 8), 1, 2, 3}
					n, err := tab.Allocate(r, 0, 100)
					if errors.Is(err, ErrNoFreeInode) {
						continue
					}
					if err == nil {
						// Each file's block is its own inode number, so
						// no two live files overlap.
						mine = append(mine, n)
						err = tab.Retarget(n, n)
					}
					if err == nil {
						err = writeBoth(n)
					}
					if err != nil {
						errs <- err
						return
					}
					continue
				}
				k := rng.IntN(len(mine))
				n := mine[k]
				mine = append(mine[:k], mine[k+1:]...)
				if err := tab.Free(n); err != nil {
					errs <- err
					return
				}
				if err := writeBoth(n); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	bs := int64(desc.BlockSize)
	ctrl := make([]byte, desc.CtrlSize*bs)
	for b := int64(0); b < desc.CtrlSize; b++ {
		if _, err := tab.copyInodeBlock(uint32(b*bs/InodeSize), ctrl[b*bs:]); err != nil {
			t.Fatal(err)
		}
	}
	for i, dev := range devs {
		got := make([]byte, len(ctrl))
		if err := dev.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ctrl) {
			t.Fatalf("replica %d's inode table differs from the image", i)
		}
		re, report, err := Load(dev)
		if err != nil || len(report.Problems) != 0 {
			t.Fatalf("reloading replica %d: %v %+v", i, err, report)
		}
		if err := sameLive(tab, re); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
	}
}

// BenchmarkTableAllocFree: one create's and one delete's table
// bookkeeping with 100 files live, at two table sizes. The free list's
// cost used to grow with the table (a delete shifted every free number);
// the bitmap's does not.
func BenchmarkTableAllocFree(b *testing.B) {
	for _, inodes := range []int{10_000, 1 << 20} {
		b.Run(fmt.Sprintf("inodes=%d", inodes), func(b *testing.B) {
			tab := NewEmpty(Descriptor{
				BlockSize: 512,
				CtrlSize:  int64((inodes + 1 + 31) / 32),
				DataSize:  1 << 30,
				Version:   2,
			})
			r := capability.Random{1, 2, 3, 4, 5, 6}
			for i := 0; i < 100; i++ {
				if _, err := tab.Allocate(r, uint32(i), 512); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := tab.Allocate(r, 100, 512)
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Free(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
