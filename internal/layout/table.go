package layout

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// Table is the in-RAM copy of the inode table. The server reads the whole
// table at startup and keeps it in memory permanently (paper §3); every
// mutation is written through to disk by the caller via WriteInode.
//
// Inode numbers are 1-based: number 0 is the descriptor and is never handed
// out. They are also the object numbers inside Bullet capabilities.
type Table struct {
	mu     sync.RWMutex
	desc   Descriptor // immutable after Load/Format except for UpgradeInPlace
	inodes []Inode    // guarded by mu; slot i holds inode i; slot 0 unused
	live   int        // guarded by mu

	// image is the control area exactly as the disk holds it: the
	// descriptor in slot 0, then each inode's 16 bytes with a zero cache
	// index. Every change to a persisted field rewrites its slot here, so
	// writing a control block back is a copy, not an encode.
	image []byte // guarded by mu

	// free has bit n%64 of word n/64 set when inode n is free; every word
	// below freeHint is zero. Allocation takes the lowest set bit, so the
	// order in which inodes are handed out is stable.
	free     []uint64 // guarded by mu
	freeHint int      // guarded by mu

	// dirtySums holds the 0-based checksum-area block indexes whose RAM
	// state is newer than disk. Checksums are advisory (an absent entry is
	// recomputed on fault-in) so they are persisted in batches by
	// FlushSums rather than on the create write-through path, keeping the
	// commit cost of a create identical to the paper's.
	dirtySums map[int64]struct{} // guarded by mu
}

// ScanProblem describes one inconsistency found while scanning the table.
type ScanProblem struct {
	Inode  uint32
	Reason string
}

// ScanReport summarises the startup consistency scan.
type ScanReport struct {
	Live     int           // inodes describing valid files
	Free     int           // zero-filled inodes
	Problems []ScanProblem // inodes zeroed because they were inconsistent
}

// Load reads the complete inode table from dev into RAM, performing the
// startup consistency checks of paper §3: every file must lie inside the
// data area and no two files may overlap. Inconsistent inodes are zeroed in
// RAM (the caller re-persists them). Cache indexes are meaningless on disk
// and cleared. The bytes read become the table's disk image once the scan
// has zeroed what it dropped.
func Load(dev disk.Device) (*Table, *ScanReport, error) {
	desc, err := ReadDescriptor(dev)
	if err != nil {
		return nil, nil, err
	}
	bs := desc.BlockSize
	raw := make([]byte, desc.CtrlSize*int64(bs))
	if err := dev.ReadAt(raw, 0); err != nil {
		return nil, nil, fmt.Errorf("layout: reading inode table: %w", err)
	}

	max := desc.MaxInodes()
	t := &Table{
		desc:   desc,
		inodes: make([]Inode, max+1),
		image:  raw,
		free:   make([]uint64, max/64+1),
	}
	descriptorBytes(desc, raw[:InodeSize])
	report := &ScanReport{}

	type span struct {
		start, count int64
		n            uint32
	}
	var spans []span
	for n := 1; n <= max; n++ {
		ino := decodeInode(raw[n*InodeSize : (n+1)*InodeSize])
		ino.CacheIndex = 0 // no significance on disk
		if !ino.InUse() {
			report.Free++
			t.freeLocked(uint32(n))
			continue
		}
		blocks := ino.Blocks(bs)
		if int64(ino.FirstBlock)+blocks > desc.DataSize {
			report.Problems = append(report.Problems, ScanProblem{
				Inode:  uint32(n),
				Reason: fmt.Sprintf("file extends past data area (block %d + %d > %d)", ino.FirstBlock, blocks, desc.DataSize),
			})
			t.freeLocked(uint32(n))
			report.Free++
			continue
		}
		spans = append(spans, span{start: int64(ino.FirstBlock), count: blocks, n: uint32(n)})
		t.inodes[n] = ino
		t.putLocked(uint32(n))
	}

	// Overlap detection: sort by first block and compare neighbours. A
	// later inode overlapping an earlier one is zeroed (the earlier file is
	// kept; with write-through either order is defensible, this one is
	// deterministic).
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].n < spans[j].n
	})
	end := int64(-1)
	for _, s := range spans {
		if s.start < end {
			report.Problems = append(report.Problems, ScanProblem{
				Inode:  s.n,
				Reason: fmt.Sprintf("file at block %d overlaps previous file ending at %d", s.start, end),
			})
			t.inodes[s.n] = Inode{}
			t.freeLocked(s.n)
			report.Free++
			continue
		}
		if e := s.start + s.count; e > end {
			end = e
		}
		report.Live++
		t.live++
	}

	// v2: load the checksum area. Entries are advisory — an absent or
	// garbage entry only means the checksum will be recomputed on first
	// fault-in — and an entry counts only when its tag matches the live
	// inode's random number, so entries left behind by deleted files
	// self-invalidate without ever being cleared on disk.
	if desc.Version >= 2 {
		sums := make([]byte, desc.SumBlocks()*int64(bs))
		if err := dev.ReadAt(sums, desc.SumStart()*int64(bs)); err != nil {
			return nil, nil, fmt.Errorf("layout: reading checksum area: %w", err)
		}
		for n := 1; n <= max; n++ {
			if !t.inodes[n].InUse() {
				continue
			}
			e := sums[n*SumEntrySize : (n+1)*SumEntrySize]
			if binary.BigEndian.Uint32(e[0:4]) == sumTagWord(t.inodes[n].Random) {
				t.inodes[n].Sum = binary.BigEndian.Uint32(e[4:8])
				t.inodes[n].HasSum = true
			}
		}
	}
	return t, report, nil
}

// NewEmpty builds the in-RAM table for a freshly formatted disk without
// re-reading it.
func NewEmpty(desc Descriptor) *Table {
	max := desc.MaxInodes()
	t := &Table{
		desc:   desc,
		inodes: make([]Inode, max+1),
		image:  make([]byte, desc.CtrlSize*int64(desc.BlockSize)),
		free:   make([]uint64, max/64+1),
	}
	descriptorBytes(desc, t.image[:InodeSize])
	for i := range t.free {
		t.free[i] = ^uint64(0)
	}
	t.free[0] &^= 1 // inode 0 is the descriptor
	if r := (max + 1) % 64; r != 0 {
		t.free[len(t.free)-1] &= 1<<r - 1
	}
	return t
}

// putLocked rewrites inode n's slot of the disk image from t.inodes[n].
func (t *Table) putLocked(n uint32) {
	ino := t.inodes[n]
	ino.CacheIndex = 0 // run-time state never reaches disk
	ino.encode(t.image[int(n)*InodeSize:])
}

// freeLocked marks inode n free in the bitmap and zeroes its image slot.
func (t *Table) freeLocked(n uint32) {
	clear(t.image[int(n)*InodeSize : int(n+1)*InodeSize])
	w := int(n / 64)
	t.free[w] |= 1 << (n % 64)
	t.freeHint = min(t.freeHint, w)
}

// Desc returns the disk descriptor the table was loaded from.
func (t *Table) Desc() Descriptor { return t.desc }

// MaxInodes returns the table capacity.
func (t *Table) MaxInodes() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.inodes) - 1
}

// Live returns the number of in-use inodes.
func (t *Table) Live() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// FreeCount returns the number of free inodes.
func (t *Table) FreeCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.inodes) - 1 - t.live
}

// Get returns inode n if it is in use.
func (t *Table) Get(n uint32) (Inode, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n == 0 || int(n) >= len(t.inodes) {
		return Inode{}, fmt.Errorf("inode %d of %d: %w", n, len(t.inodes)-1, ErrBadInode)
	}
	ino := t.inodes[n]
	if !ino.InUse() {
		return Inode{}, fmt.Errorf("inode %d is free: %w", n, ErrBadInode)
	}
	return ino, nil
}

// Allocate claims a free inode for a new file and fills it in. The random
// number must be non-zero (capability.NewRandom guarantees it with
// overwhelming probability; Allocate rejects zero outright).
func (t *Table) Allocate(r capability.Random, firstBlock uint32, size uint32) (uint32, error) {
	if r.IsZero() {
		return 0, fmt.Errorf("zero random number marks a free inode: %w", ErrConfig)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for ; t.freeHint < len(t.free); t.freeHint++ {
		if w := t.free[t.freeHint]; w != 0 {
			b := bits.TrailingZeros64(w)
			t.free[t.freeHint] = w &^ (1 << b)
			n := uint32(t.freeHint*64 + b)
			t.inodes[n] = Inode{Random: r, FirstBlock: firstBlock, Size: size}
			t.putLocked(n)
			t.live++
			return n, nil
		}
	}
	return 0, ErrNoFreeInode
}

// Free zeroes inode n, returning it to the free bitmap. The caller writes
// the change through with WriteInode ("freeing an inode by zeroing it and
// writing it back to the disk", paper §3).
func (t *Table) Free(n uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 || int(n) >= len(t.inodes) || !t.inodes[n].InUse() {
		return fmt.Errorf("freeing inode %d: %w", n, ErrBadInode)
	}
	t.inodes[n] = Inode{}
	t.freeLocked(n)
	t.live--
	return nil
}

// SetCacheIndex records the rnode slot (plus one) holding inode n's file in
// the RAM cache; 0 means not cached. The index lives in RAM only: the
// inode's slot on disk carries a zero there.
func (t *Table) SetCacheIndex(n uint32, idx uint16) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 || int(n) >= len(t.inodes) || !t.inodes[n].InUse() {
		return fmt.Errorf("indexing inode %d: %w", n, ErrBadInode)
	}
	t.inodes[n].CacheIndex = idx
	return nil
}

// SetCacheIndexIf updates inode n's cache index to idx only if it still
// holds from. Concurrent readers use it to heal a stale index without
// clobbering a cache insert published by a parallel disk fault: the
// compare-and-set loses gracefully when someone else got there first.
// It returns true when the swap happened.
func (t *Table) SetCacheIndexIf(n uint32, from, idx uint16) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 || int(n) >= len(t.inodes) || !t.inodes[n].InUse() {
		return false, fmt.Errorf("indexing inode %d: %w", n, ErrBadInode)
	}
	if t.inodes[n].CacheIndex != from {
		return false, nil
	}
	t.inodes[n].CacheIndex = idx
	return true, nil
}

// SetSum records the CRC32C of inode n's contents and marks its checksum
// block dirty. The entry reaches disk via WriteSum (one block, now) or
// FlushSums (all dirty blocks, batched — the normal path); on v1 disks
// the checksum lives in RAM only.
func (t *Table) SetSum(n uint32, sum uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 || int(n) >= len(t.inodes) || !t.inodes[n].InUse() {
		return fmt.Errorf("checksumming inode %d: %w", n, ErrBadInode)
	}
	t.inodes[n].Sum = sum
	t.inodes[n].HasSum = true
	if t.desc.Version >= 2 {
		if t.dirtySums == nil {
			t.dirtySums = make(map[int64]struct{})
		}
		t.dirtySums[int64(n)*SumEntrySize/int64(t.desc.BlockSize)] = struct{}{}
	}
	return nil
}

// SumsPersisted reports whether the disk carries a checksum area (v2). On
// v1 disks checksums are RAM-only and WriteSum is a no-op.
func (t *Table) SumsPersisted() bool { return t.desc.Version >= 2 }

// EncodeSumBlock renders the checksum-area block holding inode n's entry,
// encoded from the live table: free inodes get zero entries, inodes
// without a computed checksum get a zero flags word.
func (t *Table) EncodeSumBlock(n uint32) (blockNo int64, data []byte) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	bs := t.desc.BlockSize
	blockNo = t.desc.SumBlockOf(n)
	data = make([]byte, bs)
	perBlock := bs / SumEntrySize
	first := (int(n) * SumEntrySize / bs) * perBlock
	for i := 0; i < perBlock; i++ {
		slot := first + i
		if slot == 0 || slot >= len(t.inodes) {
			continue
		}
		ino := t.inodes[slot]
		if !ino.InUse() || !ino.HasSum {
			continue
		}
		e := data[i*SumEntrySize : (i+1)*SumEntrySize]
		binary.BigEndian.PutUint32(e[0:4], sumTagWord(ino.Random))
		binary.BigEndian.PutUint32(e[4:8], ino.Sum)
	}
	return blockNo, data
}

// WriteSum persists the checksum-area block containing inode n's entry and
// clears its dirty mark. On v1 disks (no checksum area) it is a no-op.
func (t *Table) WriteSum(dev disk.Device, n uint32) error {
	if !t.SumsPersisted() {
		return nil
	}
	blockNo, data := t.EncodeSumBlock(n)
	if err := dev.WriteAt(data, blockNo*int64(t.desc.BlockSize)); err != nil {
		return fmt.Errorf("layout: writing checksum block %d: %w", blockNo, err)
	}
	t.mu.Lock()
	delete(t.dirtySums, blockNo-t.desc.SumStart())
	t.mu.Unlock()
	return nil
}

// DirtySums returns how many checksum blocks have RAM state newer than
// disk.
func (t *Table) DirtySums() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.dirtySums)
}

// FlushSums writes every dirty checksum block to dev and returns how many
// blocks it wrote. The engine calls it from Sync, shutdown, and the
// scrubber's idle loop; losing a flush costs only a lazy recompute on the
// next fault-in, never correctness.
func (t *Table) FlushSums(dev disk.Device) (int, error) {
	if !t.SumsPersisted() {
		return 0, nil
	}
	t.mu.Lock()
	idxs := make([]int64, 0, len(t.dirtySums))
	for idx := range t.dirtySums {
		idxs = append(idxs, idx)
	}
	t.mu.Unlock()
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	bs := t.desc.BlockSize
	perBlock := uint32(bs / SumEntrySize)
	for _, idx := range idxs {
		blockNo, data := t.EncodeSumBlock(uint32(idx) * perBlock)
		if err := dev.WriteAt(data, blockNo*int64(bs)); err != nil {
			return 0, fmt.Errorf("layout: flushing checksum block %d: %w", blockNo, err)
		}
		t.mu.Lock()
		delete(t.dirtySums, idx)
		t.mu.Unlock()
	}
	return len(idxs), nil
}

// Retarget points inode n at a new first block, preserving every other
// field. Compaction uses it after physically moving a file's data.
func (t *Table) Retarget(n uint32, firstBlock uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n == 0 || int(n) >= len(t.inodes) || !t.inodes[n].InUse() {
		return fmt.Errorf("retargeting inode %d: %w", n, ErrBadInode)
	}
	t.inodes[n].FirstBlock = firstBlock
	t.putLocked(n)
	return nil
}

// ForEachUsed calls fn for every in-use inode, ascending by number.
func (t *Table) ForEachUsed(fn func(n uint32, ino Inode)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for n := 1; n < len(t.inodes); n++ {
		if t.inodes[n].InUse() {
			fn(uint32(n), t.inodes[n])
		}
	}
}

// InodeBlock returns the control-area block number containing inode n.
func (t *Table) InodeBlock(n uint32) int64 {
	return int64(n) * InodeSize / int64(t.desc.BlockSize)
}

// copyInodeBlock copies the current disk image of the control block that
// holds inode n into buf, which is at least one block long, and returns
// the block's number. Creating or deleting a file writes the whole block
// containing the inode (paper §3).
func (t *Table) copyInodeBlock(n uint32, buf []byte) (blockNo int64, err error) {
	bs := int64(t.desc.BlockSize)
	blockNo = t.InodeBlock(n)
	if blockNo >= t.desc.CtrlSize {
		return 0, fmt.Errorf("inode %d past the inode table: %w", n, ErrBadInode)
	}
	t.mu.RLock()
	copy(buf[:bs], t.image[blockNo*bs:])
	t.mu.RUnlock()
	return blockNo, nil
}

// WriteInode persists the control block containing inode n to dev through
// a fresh block buffer. The checksum area is deliberately NOT written
// here: entries self-invalidate via their random-number tag, so create and
// delete stay one-block writes exactly as in the paper, and checksums
// reach disk via FlushSums.
func (t *Table) WriteInode(dev disk.Device, n uint32) error {
	return t.WriteInodeBuf(dev, n, make([]byte, t.desc.BlockSize))
}

// WriteInodeBuf is WriteInode through buf, at least one block long, which
// the caller owns for the duration: a device is done with a buffer when
// WriteAt returns, so a caller that writes many blocks passes the same one
// each time and allocates nothing.
func (t *Table) WriteInodeBuf(dev disk.Device, n uint32, buf []byte) error {
	blockNo, err := t.copyInodeBlock(n, buf)
	if err != nil {
		return err
	}
	bs := int64(t.desc.BlockSize)
	if err := dev.WriteAt(buf[:bs], blockNo*bs); err != nil {
		return fmt.Errorf("layout: writing inode block %d: %w", blockNo, err)
	}
	return nil
}

// WriteInodes persists the control blocks containing the given inodes
// through buf, writing each distinct block exactly once however many of
// the inodes share it. Group-committed creates use this: a batch of N
// small files whose inodes land in the same block costs one block write,
// not N.
func (t *Table) WriteInodes(dev disk.Device, ns []uint32, buf []byte) error {
	var seen [8]int64 // a batch's inodes are allocated lowest first, so few distinct blocks
	written := seen[:0]
	for _, n := range ns {
		blockNo := t.InodeBlock(n)
		if slices.Contains(written, blockNo) {
			continue
		}
		written = append(written, blockNo)
		if err := t.WriteInodeBuf(dev, n, buf); err != nil {
			return err
		}
	}
	return nil
}

// UpgradeInPlace converts a loaded v1 table to v2 on dev: it carves the
// checksum area out of the tail of the data area, zeroes it, and rewrites
// the descriptor. The upgrade is possible only when no live file occupies
// the tail blocks being carved off (the allocator is first-fit, so the
// tail is free on all but completely full disks); when a file is in the way the
// table stays v1 — checksums then live in RAM only — and (false, nil) is
// returned. The descriptor write is last and single-block, so a crash
// mid-upgrade leaves a valid v1 disk.
func (t *Table) UpgradeInPlace(dev disk.Device) (bool, error) {
	t.mu.Lock()
	if t.desc.Version >= 2 {
		t.mu.Unlock()
		return false, nil
	}
	bs := t.desc.BlockSize
	sumBlocks := sumBlocksFor(bs, t.desc.CtrlSize)
	newDataSize := t.desc.DataSize - sumBlocks
	if newDataSize <= 0 {
		t.mu.Unlock()
		return false, nil
	}
	for n := 1; n < len(t.inodes); n++ {
		ino := t.inodes[n]
		if ino.InUse() && int64(ino.FirstBlock)+ino.Blocks(bs) > newDataSize {
			t.mu.Unlock()
			return false, nil // a file occupies the would-be checksum area
		}
	}
	t.mu.Unlock()

	// Zero the new checksum area first, then flip the descriptor: magic2
	// is only visible once every entry under it reads as "absent".
	zero := make([]byte, bs)
	for b := int64(0); b < sumBlocks; b++ {
		if err := dev.WriteAt(zero, (t.desc.CtrlSize+newDataSize+b)*int64(bs)); err != nil {
			return false, fmt.Errorf("layout: clearing checksum area: %w", err)
		}
	}
	t.mu.Lock()
	t.desc.Version = 2
	t.desc.DataSize = newDataSize
	descriptorBytes(t.desc, t.image[:InodeSize])
	// Any checksums computed while the disk was still v1 lived in RAM
	// only; mark their blocks dirty so the next FlushSums persists them.
	for n := 1; n < len(t.inodes); n++ {
		if t.inodes[n].InUse() && t.inodes[n].HasSum {
			if t.dirtySums == nil {
				t.dirtySums = make(map[int64]struct{})
			}
			t.dirtySums[int64(n)*SumEntrySize/int64(bs)] = struct{}{}
		}
	}
	t.mu.Unlock()
	if err := t.WriteInode(dev, 0); err != nil {
		return false, fmt.Errorf("layout: writing upgraded descriptor: %w", err)
	}
	return true, dev.Sync()
}

func descriptorBytes(d Descriptor, b []byte) {
	magic := uint32(Magic)
	if d.Version >= 2 {
		magic = Magic2
	}
	binary.BigEndian.PutUint32(b[0:4], magic)
	binary.BigEndian.PutUint32(b[4:8], uint32(d.BlockSize))
	binary.BigEndian.PutUint32(b[8:12], uint32(d.CtrlSize))
	binary.BigEndian.PutUint32(b[12:16], uint32(d.DataSize))
}
