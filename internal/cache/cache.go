// Package cache implements the Bullet server's RAM file cache (paper §3).
//
// All of the server's memory that is not the inode table is one contiguous
// arena in which whole files are cached contiguously. A separate table of
// rnodes administers the cached files; an rnode records which inode the
// cached copy belongs to, where the copy lives in the arena, and an age
// field implementing LRU replacement. Free rnodes and free arena space are
// kept on free lists.
//
// The age field stays the one record of recency; a hit only restamps it.
// Eviction finds the oldest rnode through an index beside the table, a
// min-heap of (age, slot) repaired lazily at its top (lru.go), so a miss
// costs O(log n) rather than a walk of every rnode, and picks exactly the
// rnode such a walk would.
//
// The inode table points back into this cache: inode.CacheIndex zero means
// "not cached", any other value is the rnode slot number of the cached
// copy. This package hands out those 1-based slot numbers and reports which
// inodes it evicted so the engine can clear their index fields, exactly the
// bookkeeping sequence the paper describes.
//
// Fragmentation of the arena is fought the way the paper suggests: when
// eviction alone cannot produce a large-enough hole but total free space
// suffices, the cache compacts itself (slides every cached file toward the
// bottom of the arena) and retries.
//
// The arena is the server's own memory, managed by the structures above,
// so it lives outside the Go heap: New maps it anonymously and a finalizer
// on the Cache unmaps it. The collector neither scans it nor paces on it,
// so a server's footprint is the arena pages it has touched plus a small
// heap, not the arena plus as much garbage again. Every View holds its
// Cache, so a live pin keeps the mapping; a method that works on arena
// bytes keeps the Cache alive until it is done with them.
package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"

	"bulletfs/internal/alloc"
	"bulletfs/internal/stats"
)

// Errors returned by the cache.
var (
	// ErrTooLarge means a file exceeds the entire cache arena. The Bullet
	// model requires files to fit in the server's memory (paper §2).
	ErrTooLarge = errors.New("cache: file larger than cache arena")
	// ErrBadSlot means an rnode slot number is stale or invalid.
	ErrBadSlot = errors.New("cache: bad rnode slot")
	// ErrCorrupt means the cache's own bookkeeping and the arena
	// allocator disagree — a bug, not an operational condition. The cache
	// reports it instead of panicking so one damaged structure degrades
	// to failed requests rather than a server outage (paper §6's
	// robustness goal).
	ErrCorrupt = errors.New("cache: arena bookkeeping corrupt")
	// ErrConfig means New was called with an unusable arena or rnode
	// table size.
	ErrConfig = errors.New("cache: bad configuration")
)

// rnode administers one cached file (paper §3: inode index, pointer into
// the RAM cache). The LRU age and the pin count live in the cache's
// parallel slots table (one cache-line-padded slotState per rnode) so the
// read path can update them under the shared lock. A pinned rnode's arena bytes are immovable and
// must survive until the last view is released, so eviction and
// compaction skip pinned entries and Remove defers the reclaim by
// setting doomed.
type rnode struct {
	inode    uint32
	off      int64
	size     int64 // the file's bytes, what readers see
	span     int64 // the arena extent: size, or size rounded up by Reserve
	used     bool
	doomed   bool // removed while pinned; reclaim on last Release
	unfilled bool // reserved, bytes not yet valid; lookups refuse it until Publish
}

// bytes returns the rnode's file bytes in the arena.
func (rn *rnode) bytes(buf []byte) []byte {
	if rn.size == 0 {
		return []byte{}
	}
	return buf[rn.off : rn.off+rn.size : rn.off+rn.size]
}

// slotState is one rnode's reader-side state. It is padded to a full cache
// line: concurrent readers of different files update adjacent slots' pin
// counts and age stamps on every operation, and without the padding those
// updates ping-pong a single line of packed counters between cores,
// serializing the whole read path.
type slotState struct {
	pins atomic.Int32 // outstanding Views; >0 means the extent is immovable
	_    [4]byte
	age  atomic.Uint64 // LRU age stamp
	hits atomic.Int64  // reads served from this slot; drained into stats on reclaim
	_    [40]byte
}

// Stats reports cache behaviour since creation.
type Stats struct {
	Files       int   // cached files right now
	UsedBytes   int64 // arena bytes holding cached files, block-rounded tails included
	TotalBytes  int64 // arena size
	Insertions  int64 // successful Inserts and Reserves
	Evictions   int64 // files evicted to make room
	Compactions int64 // arena compactions triggered by fragmentation
	Hits        int64 // successful Gets
	Misses      int64 // faults reported by the engine via NoteMiss

	PinnedViews        int64 // outstanding pinned read views right now
	CompactionsSkipped int64 // compactions refused because views were pinned
}

// Cache is the contiguous RAM file cache. It is safe for concurrent use:
// lookups (GetView, Pin, Get) share the lock and touch only the atomic
// side tables, so concurrent readers proceed in parallel; Insert, Reserve,
// Remove and Compact hold it exclusively. The bytes of a reserved slot are
// the one exception to "buf is guarded by mu": until Publish they belong to
// the reserving caller alone, and its pin keeps them in place after (see
// Reserve).
type Cache struct {
	mu       sync.RWMutex
	buf      []byte           // guarded by mu (shared: read bytes; exclusive: move/overwrite); the mapped arena
	arena    *alloc.Allocator // guarded by mu
	rnodes   []rnode          // guarded by mu; slot i at rnodes[i-1]; slots are 1-based
	freeSlot []uint16         // guarded by mu; free rnode slots

	// The LRU index over the slots' ages (see lru.go).
	lru    lruHeap    // guarded by mu; at most one entry per slot
	queued []bool     // guarded by mu; queued[i]: slot i+1 has an entry in lru
	aside  []lruEntry // guarded by mu; lruLocked's scratch for pinned entries

	// Per-slot reader state, parallel to rnodes. Atomic so that readers
	// holding only the shared lock can pin entries and refresh LRU ages;
	// padded so neighbouring slots never share a cache line (see slotState).
	slots []slotState

	ageClock atomic.Uint64
	_        [56]byte     // pad: the age clock is bumped on every read
	doomed   atomic.Int64 // doomed slots awaiting their last Release
	_        [56]byte     // pad: Release loads doomed on every call
	misses   atomic.Int64

	stats Stats // guarded by mu; slow-path counters only (Hits holds reclaimed slots' drained hit counts)
}

// New builds a cache with an arena of the given size and at most maxFiles
// simultaneously cached files (the rnode table size). The arena is mapped
// outside the Go heap and unmapped once the Cache and every View of it are
// unreachable; a failed mapping reports ErrConfig.
func New(arenaBytes int64, maxFiles int) (*Cache, error) {
	if arenaBytes <= 0 {
		return nil, fmt.Errorf("non-positive arena %d: %w", arenaBytes, ErrConfig)
	}
	if maxFiles <= 0 || maxFiles > 0xFFFE {
		return nil, fmt.Errorf("rnode count %d out of range: %w", maxFiles, ErrConfig)
	}
	arena, err := alloc.New(arenaBytes)
	if err != nil {
		return nil, err
	}
	buf, err := syscall.Mmap(-1, 0, int(arenaBytes), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping a %d-byte arena: %v: %w", arenaBytes, err, ErrConfig)
	}
	c := &Cache{
		buf:      buf,
		arena:    arena,
		rnodes:   make([]rnode, maxFiles),
		freeSlot: make([]uint16, 0, maxFiles),
		lru:      make(lruHeap, 0, maxFiles),
		queued:   make([]bool, maxFiles),
		slots:    make([]slotState, maxFiles),
	}
	for i := maxFiles; i >= 1; i-- {
		c.freeSlot = append(c.freeSlot, uint16(i))
	}
	runtime.SetFinalizer(c, (*Cache).unmap)
	return c, nil
}

// unmap returns the arena to the kernel. It is the Cache's finalizer: it
// runs once nothing reaches the Cache — no View either, since every View
// holds it — so no arena byte can be touched again.
func (c *Cache) unmap() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = syscall.Munmap(c.buf) // only fails for a slice Mmap did not return
	c.buf = nil
}

// tick returns the next age stamp; safe under the shared lock.
func (c *Cache) tick() uint64 {
	return c.ageClock.Add(1)
}

// slotLocked returns the rnode for a 1-based slot number. Doomed slots
// (removed while pinned, awaiting the last Release) are logically gone and
// report ErrBadSlot like any other stale index.
func (c *Cache) slotLocked(idx uint16) (*rnode, error) {
	if idx == 0 || int(idx) > len(c.rnodes) {
		return nil, fmt.Errorf("slot %d: %w", idx, ErrBadSlot)
	}
	rn := &c.rnodes[idx-1]
	if !rn.used || rn.doomed {
		return nil, fmt.Errorf("slot %d is free: %w", idx, ErrBadSlot)
	}
	return rn, nil
}

// lookupLocked resolves slot idx for a reader of inode: the slot must be
// live, still belong to that inode (slot numbers are reused after
// evictions) and hold filled bytes.
func (c *Cache) lookupLocked(idx uint16, inode uint32) (*rnode, error) {
	rn, err := c.slotLocked(idx)
	if err != nil {
		return nil, err
	}
	if rn.inode != inode {
		return nil, fmt.Errorf("slot %d holds inode %d, want %d: %w", idx, rn.inode, inode, ErrBadSlot)
	}
	if rn.unfilled {
		return nil, fmt.Errorf("slot %d is reserved, not yet filled: %w", idx, ErrBadSlot)
	}
	return rn, nil
}

// Evicted identifies one eviction performed during an Insert: which inode
// lost its cached copy and which rnode slot held it. Reporting the slot
// lets the engine clear the inode's cache-index field with a compare-and-
// set — if the index no longer names this slot, a concurrent fault already
// re-cached the file and the stale-index clear must lose.
type Evicted struct {
	Inode uint32
	Slot  uint16
}

// Insert caches data as the contents of the given inode, evicting
// least-recently-used files (and compacting, if fragmentation demands) to
// make room. It returns the rnode slot to store in the inode's cache-index
// field and the (inode, slot) pair of every file evicted along the way.
func (c *Cache) Insert(inode uint32, data []byte) (idx uint16, evicted []Evicted, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := int64(len(data))
	idx, evicted, err = c.placeLocked(inode, n, n)
	if err != nil {
		return 0, evicted, err
	}
	copy(c.rnodes[idx-1].bytes(c.buf), data)
	runtime.KeepAlive(c) // the mapping must outlive the copy into it
	return idx, evicted, nil
}

// Reserve places a size-byte file in a span-byte extent (span >= size;
// a create rounds it up to whole disk blocks) exactly as Insert places
// one, but copies nothing: it pins the slot into v, whose Bytes are the
// caller's to fill (a socket or disk read lands in them directly) and
// whose Extent is those bytes plus a zeroed tail up to span. Until
// Publish the slot is unfilled — GetView, Pin and Get refuse it — and the
// caller has told nobody its number, so no other goroutine can reach the
// extent: the pin keeps eviction and compaction away, and the fill needs
// no lock. inode may be 0 (no inode has been allocated yet) if Publish
// names it. A caller that gives up calls Remove and then Release, which
// returns the extent. Evictions are reported even when the reservation
// itself fails, which leaves v untouched.
func (c *Cache) Reserve(v *View, inode uint32, size, span int64) (evicted []Evicted, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	idx, evicted, err := c.placeLocked(inode, size, span)
	if err != nil {
		return evicted, err
	}
	rn := &c.rnodes[idx-1]
	rn.unfilled = true
	c.slots[idx-1].pins.Add(1)
	data := []byte{}
	if span > 0 {
		data = c.buf[rn.off : rn.off+size : rn.off+span]
		clear(data[size:span])
	}
	runtime.KeepAlive(c) // the mapping must outlive the clear
	*v = View{c: c, idx: idx, data: data}
	return evicted, nil
}

// placeLocked claims an rnode and a span-byte arena extent for a size-byte
// file of inode — the one placement routine behind Insert and Reserve:
// evict the LRU file if the rnode table is full, evict further until first
// fit succeeds, and compact once if what is free is shattered.
func (c *Cache) placeLocked(inode uint32, size, span int64) (idx uint16, evicted []Evicted, err error) {
	if span > c.arena.Total() {
		return 0, nil, fmt.Errorf("%d bytes into %d-byte arena: %w", span, c.arena.Total(), ErrTooLarge)
	}
	// Claim an rnode, evicting the LRU file if the table is full.
	if len(c.freeSlot) == 0 {
		victim := c.lruLocked()
		if victim == 0 {
			return 0, nil, fmt.Errorf("no rnode and nothing to evict: %w", ErrBadSlot)
		}
		inode, rerr := c.removeLocked(victim)
		if rerr != nil {
			return 0, evicted, rerr
		}
		evicted = append(evicted, Evicted{Inode: inode, Slot: victim})
	}

	var off int64 = -1
	if span > 0 {
		for {
			start, allocErr := c.arena.Alloc(span)
			if allocErr == nil {
				off = start
				break
			}
			if !errors.Is(allocErr, alloc.ErrNoSpace) {
				return 0, evicted, allocErr
			}
			victim := c.lruLocked()
			if victim != 0 {
				inode, rerr := c.removeLocked(victim)
				if rerr != nil {
					return 0, evicted, rerr
				}
				evicted = append(evicted, Evicted{Inode: inode, Slot: victim})
				continue
			}
			// Nothing left to evict. If the space exists but is shattered,
			// compact and retry once; otherwise give up (cannot happen when
			// size <= arena, but guard anyway).
			if st := c.arena.Stats(); st.Free >= span {
				if cerr := c.compactLocked(); cerr != nil {
					return 0, evicted, cerr
				}
				start, allocErr = c.arena.Alloc(span)
				if allocErr == nil {
					off = start
					break
				}
			}
			return 0, evicted, fmt.Errorf("%d bytes: %w", span, ErrTooLarge)
		}
	}

	slotNum := c.freeSlot[len(c.freeSlot)-1]
	c.freeSlot = c.freeSlot[:len(c.freeSlot)-1]
	c.rnodes[slotNum-1] = rnode{inode: inode, off: off, size: size, span: span, used: true}
	age := c.tick()
	c.slots[slotNum-1].age.Store(age)
	c.queueLocked(slotNum, age)
	c.stats.Insertions++
	return slotNum, evicted, nil
}

// removeLocked frees slot idx and returns the inode it held. A pinned slot
// cannot release its arena bytes while readers still view them, so it is
// marked doomed instead and reclaimed by the last Release; the slot is
// logically gone either way (slotLocked stops resolving it). A Free the
// allocator rejects means cache and arena bookkeeping have diverged; the
// slot is still released (the rnode is gone either way) and ErrCorrupt is
// reported so the engine can fail the request instead of crashing.
func (c *Cache) removeLocked(idx uint16) (uint32, error) {
	rn := &c.rnodes[idx-1]
	inode := rn.inode
	c.stats.Evictions++
	// Publish the doom before reading the pin count. Release decrements
	// the pin count before checking the doomed counter, so whichever of
	// the two observes the other's write performs the reclaim — the
	// extent is never stranded.
	rn.doomed = true
	c.doomed.Add(1)
	if c.slots[idx-1].pins.Load() > 0 {
		return inode, nil // the last Release reclaims
	}
	return inode, c.reclaimLocked(idx)
}

// reclaimLocked returns slot idx's arena extent to the allocator and the
// slot to the free list. Callers have already decided the entry is dead
// (unused or doomed with no pins left).
func (c *Cache) reclaimLocked(idx uint16) error {
	rn := &c.rnodes[idx-1]
	var err error
	if rn.span > 0 {
		if ferr := c.arena.Free(rn.off, rn.span); ferr != nil {
			err = fmt.Errorf("freeing [%d,%d): %v: %w", rn.off, rn.off+rn.span, ferr, ErrCorrupt)
		}
	}
	if rn.doomed {
		c.doomed.Add(-1)
	}
	*rn = rnode{}
	sl := &c.slots[idx-1]
	sl.age.Store(0)
	c.stats.Hits += sl.hits.Swap(0) // keep lifetime hit totals across slot reuse
	c.freeSlot = append(c.freeSlot, idx)
	return err
}

// View is a pinned, read-only window onto one cached file. While a view is
// outstanding its bytes are immovable: eviction skips the entry, compaction
// refuses to slide the arena, and a Remove defers the reclaim until the
// last Release. That lets a reader leave the engine's metadata lock before
// copying the bytes to the wire. Views are cheap; hold them only for the
// duration of one copy-out and always Release (Release is idempotent).
//
// A View holds its Cache, so while it is reachable the arena stays mapped.
// The engine embeds one in each read lease (ViewInto fills it), so a cache
// hit allocates no View of its own.
type View struct {
	c    *Cache
	idx  uint16
	data []byte
	done bool
}

// Bytes returns the pinned file contents. The slice aliases the cache
// arena and is valid only until Release. Only the holder of a reserved,
// unpublished view may write to it.
func (v *View) Bytes() []byte { return v.data }

// Extent returns the pinned file's whole arena extent: Bytes and, on a
// reserved view, the zeroed tail up to the span Reserve was given. It is
// valid only until Release.
func (v *View) Extent() []byte { return v.data[:cap(v.data)] }

// Slot returns the rnode slot number the view pins.
func (v *View) Slot() uint16 { return v.idx }

// Publish declares a reserved view's bytes filled and the file inode's:
// from here on GetView, Pin and Get resolve the slot for that inode. The
// caller's pin is untouched. A no-op on released views (the slot may
// already be someone else's reservation).
func (v *View) Publish(inode uint32) {
	if v.done {
		return
	}
	c := v.c
	c.mu.Lock()
	rn := &c.rnodes[v.idx-1]
	rn.inode, rn.unfilled = inode, false
	c.mu.Unlock()
}

// Len returns the pinned file's size in bytes.
func (v *View) Len() int { return len(v.data) }

// Release unpins the view. The last release of a doomed entry (removed or
// evicted while pinned) reclaims its arena space. Safe to call twice.
//
// The common case is lock-free: drop the pin counts and return. Only when
// some slot is doomed does Release take the lock to check whether this
// was the last pin holding a dead extent in place; the doomed check runs
// after the pin decrement (mirroring removeLocked's doom-then-read-pins
// order), so one of the two sides always sees the reclaim through.
func (v *View) Release() {
	if v == nil || v.done {
		return
	}
	v.done = true
	v.data = nil
	c := v.c
	left := c.slots[v.idx-1].pins.Add(-1)
	if left != 0 || c.doomed.Load() == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	rn := &c.rnodes[v.idx-1]
	// Re-check under the lock: the slot may have been reclaimed (and even
	// reused) since the fast path ran.
	if rn.used && rn.doomed && c.slots[v.idx-1].pins.Load() == 0 {
		_ = c.reclaimLocked(v.idx) // bookkeeping divergence already reported at Remove time
	}
}

// GetView returns a pinned view of the cached contents for slot idx,
// checking that the slot still belongs to the expected inode, and
// refreshes its LRU age. Unlike Get, the returned view stays valid across
// later cache operations until it is released.
func (c *Cache) GetView(idx uint16, inode uint32) (*View, error) {
	v := new(View)
	if err := c.view(v, idx, inode, true); err != nil {
		return nil, err
	}
	return v, nil
}

// Pin is GetView without the cache-hit accounting: the engine pins a
// freshly inserted entry for the duration of its disk write-through,
// which is not a read.
func (c *Cache) Pin(idx uint16, inode uint32) (*View, error) {
	v := new(View)
	if err := c.view(v, idx, inode, false); err != nil {
		return nil, err
	}
	return v, nil
}

// view pins slot idx into v, overwriting it. It runs under the shared
// lock: writers (Insert, Remove, Compact) are excluded, so the rnode
// fields are stable, and the pin/age updates go through the atomic side
// tables. Concurrent lookups proceed in parallel.
func (c *Cache) view(v *View, idx uint16, inode uint32, countHit bool) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rn, err := c.lookupLocked(idx, inode)
	if err != nil {
		return err
	}
	sl := &c.slots[idx-1]
	sl.age.Store(c.tick())
	sl.pins.Add(1)
	if countHit {
		sl.hits.Add(1)
	}
	*v = View{c: c, idx: idx, data: rn.bytes(c.buf)}
	return nil
}

// PinnedViews returns the number of outstanding pinned views. The count
// is a sum of per-slot pin counters read without the lock, so concurrent
// pin/release traffic makes it approximate — exact when quiescent.
func (c *Cache) PinnedViews() int64 {
	var n int64
	for i := range c.slots {
		n += int64(c.slots[i].pins.Load())
	}
	return n
}

// Get returns the cached contents for slot idx, checking that the slot
// still belongs to the expected inode, and refreshes its LRU age. The
// returned slice aliases the cache arena: callers must copy before the next
// cache operation, and hold the Cache while they do — the slice alone does
// not keep the arena mapped (the engine uses GetView instead, which pins
// the bytes in place until released and holds the Cache).
func (c *Cache) Get(idx uint16, inode uint32) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rn, err := c.lookupLocked(idx, inode)
	if err != nil {
		return nil, err
	}
	c.slots[idx-1].age.Store(c.tick())
	c.slots[idx-1].hits.Add(1)
	return rn.bytes(c.buf), nil
}

// NoteMiss records one cache miss. The engine calls it when a read finds
// no cached copy and faults the file in from disk; the cache cannot see
// those, because the engine consults the inode's cache-index field first.
func (c *Cache) NoteMiss() {
	c.misses.Add(1)
}

// Remove drops slot idx from the cache (file deleted, paper §3: "If the
// file is in the cache, the space in the cache can be freed"). The expected
// inode guards against stale slot numbers that were reused for another
// file after an eviction. A reserved slot can be removed before it is
// published: its holder's Release then reclaims it.
func (c *Cache) Remove(idx uint16, inode uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rn, err := c.slotLocked(idx)
	if err != nil {
		return err
	}
	if rn.inode != inode {
		return fmt.Errorf("slot %d holds inode %d, want %d: %w", idx, rn.inode, inode, ErrBadSlot)
	}
	_, err = c.removeLocked(idx)
	c.stats.Evictions-- // explicit removal is not an eviction
	return err
}

// Compact slides every cached file toward the bottom of the arena, merging
// all free space into one hole — the paper's periodic cache compaction.
// Slot numbers are stable across compaction (only offsets change), so the
// inode table does not need updating. A non-nil error is ErrCorrupt: the
// compaction plan and the allocator disagreed about what was live.
func (c *Cache) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.compactLocked()
}

// pinnedLocked sums the per-slot pin counters. Exact while mu is held
// exclusively (view needs the shared lock to pin, Reserve the exclusive).
func (c *Cache) pinnedLocked() int64 {
	var n int64
	for i := range c.slots {
		n += int64(c.slots[i].pins.Load())
	}
	return n
}

func (c *Cache) compactLocked() error {
	// Pinned views alias arena bytes; sliding them would corrupt an
	// in-flight copy-out. Pins are held only for the duration of one copy,
	// so skipping is cheap — the next compaction attempt will succeed.
	// (Holding mu exclusively excludes new pins, so the sum is exact.)
	if c.pinnedLocked() > 0 {
		c.stats.CompactionsSkipped++
		return nil
	}
	var used []alloc.Used
	for i := range c.rnodes {
		rn := &c.rnodes[i]
		if rn.used && rn.span > 0 {
			used = append(used, alloc.Used{
				Extent: alloc.Extent{Start: rn.off, Count: rn.span},
				Tag:    uint16(i + 1),
			})
		}
	}
	moves := alloc.Plan(used)
	for _, m := range moves {
		copy(c.buf[m.To:m.To+m.Count], c.buf[m.From:m.From+m.Count])
		c.rnodes[m.Tag.(uint16)-1].off = m.To
	}
	runtime.KeepAlive(c) // the mapping must outlive the moves inside it
	var after []alloc.Extent
	for i := range c.rnodes {
		rn := &c.rnodes[i]
		if rn.used && rn.span > 0 {
			after = append(after, alloc.Extent{Start: rn.off, Count: rn.span})
		}
	}
	if err := c.arena.Reset(after); err != nil {
		return fmt.Errorf("rebuilding free list after compaction: %v: %w", err, ErrCorrupt)
	}
	c.stats.Compactions++
	return nil
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Misses = c.misses.Load()
	s.TotalBytes = c.arena.Total()
	s.PinnedViews = c.pinnedLocked()
	for i := range c.rnodes {
		s.Hits += c.slots[i].hits.Load()
		if c.rnodes[i].used {
			if !c.rnodes[i].doomed {
				s.Files++
			}
			s.UsedBytes += c.rnodes[i].span
		}
	}
	return s
}

// Fragmentation reports the arena's current fragmentation (see
// alloc.Stats.Fragmentation).
func (c *Cache) Fragmentation() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arena.Stats().Fragmentation()
}

// AttachMetrics registers the cache's counters with a stats registry
// under the "cache." prefix. Values are polled at snapshot time, so
// attachment costs nothing on the hot path.
func (c *Cache) AttachMetrics(r *stats.Registry) {
	poll := func(pick func(Stats) int64) func() int64 {
		return func() int64 { return pick(c.Stats()) }
	}
	r.GaugeFunc("cache.files", poll(func(s Stats) int64 { return int64(s.Files) }))
	r.GaugeFunc("cache.resident_bytes", poll(func(s Stats) int64 { return s.UsedBytes }))
	r.GaugeFunc("cache.total_bytes", poll(func(s Stats) int64 { return s.TotalBytes }))
	r.GaugeFunc("cache.hits", poll(func(s Stats) int64 { return s.Hits }))
	r.GaugeFunc("cache.misses", poll(func(s Stats) int64 { return s.Misses }))
	r.GaugeFunc("cache.insertions", poll(func(s Stats) int64 { return s.Insertions }))
	r.GaugeFunc("cache.evictions", poll(func(s Stats) int64 { return s.Evictions }))
	r.GaugeFunc("cache.compactions", poll(func(s Stats) int64 { return s.Compactions }))
	r.GaugeFunc("cache.compactions_skipped", poll(func(s Stats) int64 { return s.CompactionsSkipped }))
	r.GaugeFunc("cache.pinned_views", c.PinnedViews)
	r.GaugeFunc("cache.fragmentation_pct", func() int64 {
		return int64(100 * c.Fragmentation())
	})
}
