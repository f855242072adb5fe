// Package bullet implements the Bullet file server engine — the paper's
// primary contribution. Files are immutable, stored contiguously on disk,
// cached contiguously in RAM, and transferred whole. The only operations
// are create, size, read and delete (paper §2.2), plus the "create a new
// file from an existing file" extension of §5.
//
// The engine composes the substrates: the inode table and disk layout
// (internal/layout), the first-fit contiguous allocator (internal/alloc),
// the rnode RAM cache (internal/cache), N-way disk replication
// (internal/disk.ReplicaSet) and capability protection
// (internal/capability). Network transport lives one layer up, in
// internal/bulletsvc.
//
// Concurrency: the paper's server was single-threaded; this engine is not
// (see docs/CONCURRENCY.md for the full model and the departure note in
// DESIGN.md). Reads take the metadata lock shared, pin the cached bytes,
// and hand the pin to the caller as a lease, outside any engine lock.
// Cache misses are deduplicated per inode (one disk read no matter how
// many concurrent readers miss on the same file) and the disk read itself
// lands in a reserved cache slot with no engine or cache lock held. Create
// holds the metadata lock only for its short allocation phase; the replica
// write-through — the P-FACTOR quorum on the request goroutine before the
// reply, the rest on it after — happens outside it.
package bullet

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"bulletfs/internal/alloc"
	"bulletfs/internal/cache"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// Engine-level errors.
var (
	// ErrNoSuchFile means the capability's object number does not name a
	// live file.
	ErrNoSuchFile = errors.New("bullet: no such file")
	// ErrTooLarge means a file does not fit in the server's cache memory;
	// the Bullet model requires whole files in RAM (paper §2).
	ErrTooLarge = errors.New("bullet: file too large for server memory")
	// ErrDiskFull means no contiguous extent can hold the file, even after
	// compaction.
	ErrDiskFull = errors.New("bullet: disk full")
	// ErrBadPFactor means the paranoia factor exceeds the number of disks
	// ("this requires the file server to have at least N disks", §2.2).
	ErrBadPFactor = errors.New("bullet: p-factor exceeds replica count")
	// ErrBadOffset means a modify/read range is malformed.
	ErrBadOffset = errors.New("bullet: bad offset or length")
)

// Rights understood by the Bullet server.
const (
	// RightRead covers BULLET.READ and BULLET.SIZE.
	RightRead = capability.RightRead
	// RightDelete covers BULLET.DELETE.
	RightDelete = capability.RightDelete
	// RightModify covers deriving new files from this one (§5 extension).
	RightModify = capability.RightModify
)

// Options configures a Server.
type Options struct {
	// Port is the server's capability port. Zero means draw a random one.
	Port capability.Port
	// CacheBytes is the RAM cache arena size. The paper's server used all
	// memory left after the inode table; default 8 MiB.
	CacheBytes int64
	// MaxCachedFiles bounds the rnode table; default 1024.
	MaxCachedFiles int
	// Metrics is the stats registry the engine threads through every
	// layer (cache, disks, its own counters). Nil means a private
	// registry; pass a shared one to co-locate RPC metrics.
	Metrics *stats.Registry
	// GroupCommitWindow enables group-committed creates: a create's
	// write-through may wait up to this long for concurrent creates to
	// share one replica fan-out (data writes back to back, each dirty
	// inode block written once). Zero disables grouping — every create
	// keeps its own fan-out, the pre-group-commit behaviour.
	GroupCommitWindow time.Duration
	// GroupCommitBatch caps how many creates share one fan-out before the
	// batch flushes early; default 64. Ignored unless GroupCommitWindow
	// is set.
	GroupCommitBatch int
}

func (o *Options) fill() error {
	if o.CacheBytes == 0 {
		o.CacheBytes = 8 << 20
	}
	if o.MaxCachedFiles == 0 {
		o.MaxCachedFiles = 1024
	}
	if (o.Port == capability.Port{}) {
		p, err := capability.NewPort()
		if err != nil {
			return err
		}
		o.Port = p
	}
	return nil
}

// Stats counts engine activity. It is a legacy snapshot view synthesized
// from the metrics registry; the registry itself (Metrics) additionally
// carries latency histograms and per-layer gauges.
type Stats struct {
	Creates      int64
	Reads        int64
	Deletes      int64
	Modifies     int64
	CacheHits    int64
	CacheMisses  int64
	CapCacheHits int64 // capability validations served from the §2.1 cache
	BytesIn      int64
	BytesOut     int64
	Compactions  int64
	FaultMerges  int64 // concurrent cache misses coalesced into one disk read
}

// engineMetrics holds the engine's handles into the stats registry. The
// handles are immutable after New; the counters themselves are atomic.
type engineMetrics struct {
	creates         *stats.Counter
	reads           *stats.Counter
	deletes         *stats.Counter
	modifies        *stats.Counter
	capCacheHits    *stats.Counter
	bytesIn         *stats.Counter
	bytesOut        *stats.Counter
	compactions     *stats.Counter
	compactionBytes *stats.Counter
	faultMerges     *stats.Counter
	uncachedCreates *stats.Counter
	sumBackfills    *stats.Counter     // checksums computed lazily on fault-in
	checksumFaults  *stats.Counter     // fault-ins that hit a checksum mismatch
	scrubRepairs    *stats.Counter     // replica extents rewritten by scrub
	scrubUnfixable  *stats.Counter     // objects no replica could verify
	leasePinned     *stats.Counter     // read leases served off a cache pin (zero-copy), hit or fault
	leaseOwned      *stats.Counter     // read leases owning a heap buffer: the cache refused the fault
	readCopies      *stats.Counter     // payload copies performed by the read path
	commit          []*stats.Histogram // commit-to-disk latency, indexed by p-factor
}

func newEngineMetrics(reg *stats.Registry, replicas int) engineMetrics {
	m := engineMetrics{
		creates:         reg.Counter("bullet.creates"),
		reads:           reg.Counter("bullet.reads"),
		deletes:         reg.Counter("bullet.deletes"),
		modifies:        reg.Counter("bullet.modifies"),
		capCacheHits:    reg.Counter("bullet.capcache_hits"),
		bytesIn:         reg.Counter("bullet.bytes_in"),
		bytesOut:        reg.Counter("bullet.bytes_out"),
		compactions:     reg.Counter("bullet.disk_compactions"),
		compactionBytes: reg.Counter("bullet.compaction_bytes_moved"),
		faultMerges:     reg.Counter("bullet.fault_merges"),
		uncachedCreates: reg.Counter("bullet.uncached_creates"),
		sumBackfills:    reg.Counter("bullet.checksum_backfills"),
		checksumFaults:  reg.Counter("bullet.checksum_faults"),
		scrubRepairs:    reg.Counter("bullet.scrub_repairs"),
		scrubUnfixable:  reg.Counter("bullet.scrub_unrepairable"),
		leasePinned:     reg.Counter("bullet.lease_pinned"),
		leaseOwned:      reg.Counter("bullet.lease_owned"),
		readCopies:      reg.Counter("bullet.read_copies"),
	}
	for k := 0; k <= replicas; k++ {
		m.commit = append(m.commit,
			reg.Histogram(fmt.Sprintf("bullet.commit_ns.p%d", k), stats.DefaultLatencyBounds))
	}
	return m
}

// faultCall is the per-inode singleflight state for one cache-miss disk
// fault. The first miss on an uncached inode becomes the leader and does
// the disk read; every concurrent miss on the same inode becomes a waiter
// on done, and once the leader has published the file pins the cached copy
// like any other hit. random pins the fault to one incarnation of the
// inode number, so a waiter whose file was deleted and whose inode slot
// was reused never merges onto the other file's fault. done is made by the
// first waiter, so a fault nobody merges onto makes no channel. When the
// cache refused the leader's reservation, owned is the file the leader
// read into the heap, and the waiters lease it too instead of each reading
// the file again.
type faultCall struct {
	random  capability.Random
	done    chan struct{} // under faultMu: made by the first waiter, closed by the leader if made
	waiters int           // merged callers parked on done; under faultMu. Tests poll it to know a merge happened
	err     error         // written by the leader before done closes
	owned   []byte        // read-only; written by the leader before done closes
}

// commitTicket is a create's write-through, as requests on its file wait
// for it (awaitCommit): registered under mu before the file is published,
// moved on by its own create only (passTicket), ended at settle.
type commitTicket struct {
	gen    uint64        // tells this create's ticket from a later one's for the inode
	queued bool          // the entry is not yet taken by a group-commit flush
	later  func()        // the parked remainder, until a waiter claims it
	done   chan struct{} // made by the first sleeping waiter; closed at every move
}

// Server is one Bullet file server instance over a replica set.
type Server struct {
	port     capability.Port
	replicas *disk.ReplicaSet
	desc     layout.Descriptor

	// mu is the metadata lock. Shared holders (reads, size, fault
	// publishing) see a consistent inode→cache binding; exclusive holders
	// (create's allocation phase, delete, compaction) may change it. The
	// table, allocator and cache additionally carry their own internal
	// locks, so mu guards only the composite invariants, never a disk
	// transfer: reads copy pinned cache bytes outside it, and create's
	// replica write-through runs outside it.
	mu     sync.RWMutex
	table  *layout.Table
	dalloc *alloc.Allocator // data-area blocks
	cache  *cache.Cache

	maxFile int64 // the cache arena size (Options.CacheBytes); immutable after New

	// committer batches concurrent creates into shared replica fan-outs
	// (Options.GroupCommitWindow); nil when grouping is disabled. Queued
	// entries are invisible to replicas.Drain; awaitCommit flushes them.
	committer *disk.GroupCommitter

	// inoMu serializes inode-block writes per replica. Two concurrent
	// creates whose inodes share a disk block would otherwise interleave
	// whole-block writes of different vintages on the same device; the
	// blocks are copied from the table's disk image inside the critical
	// section, so the last writer always publishes the freshest state.
	// inoBuf[i] is replica i's block buffer, used only under inoMu[i].
	inoMu  []sync.Mutex
	inoBuf [][]byte

	metrics *stats.Registry // immutable after New
	m       engineMetrics   // immutable handles; counters are atomic

	// capCache remembers successfully verified capabilities so repeat
	// requests skip the check-field computation — "Capabilities can be
	// cached to avoid decryption for each access" (paper §2.1). The cache
	// is keyed by object number first, so dropping an object's entries when
	// it is deleted is one map delete, not a scan. capCount is the total
	// across objects: the whole cache is bounded and evicted wholesale when
	// full (verification is cheap, the cache is an optimization, simplicity
	// wins).
	capMu    sync.RWMutex
	capCache map[uint32]map[capability.Capability]capability.Rights // guarded by capMu
	capCount int                                                    // guarded by capMu

	// faults is the per-inode singleflight table for in-flight cache-miss
	// disk reads; tickets holds each create not yet settled on every
	// replica. faultMu is a leaf lock: never held while acquiring mu.
	faultMu sync.Mutex
	faults  map[uint32]*faultCall   // guarded by faultMu
	tickets map[uint32]commitTicket // guarded by faultMu
	lastGen uint64                  // guarded by faultMu; the newest ticket's gen

	// placed holds the placements Place handed out that no create has
	// adopted and nobody abandoned yet, by the first byte of their extent.
	placeMu sync.Mutex
	placed  map[*byte]*Placement // guarded by placeMu

	// bg accounts background goroutines the engine launches (currently
	// only StartRecover's replica catch-up); Close waits for them before
	// closing the disks.
	bg sync.WaitGroup

	// recMu guards lastRecover, the report of the most recent online
	// recovery for the health endpoint.
	recMu       sync.Mutex
	lastRecover *RecoverReport // nil until the first StartRecover
}

// RecoverReport describes one online replica recovery for the health
// endpoint.
type RecoverReport struct {
	Replica int    `json:"replica"`
	Running bool   `json:"running"`
	Error   string `json:"error,omitempty"`
}

// maxCapCache bounds the verified-capability cache.
const maxCapCache = 4096

// maxFaultRetries bounds how often a fault leader re-reads a file that
// compaction keeps moving out from under it.
const maxFaultRetries = 8

// Format writes a fresh Bullet filesystem onto every replica of the set.
func Format(replicas *disk.ReplicaSet, inodes int) error {
	return layout.Format(replicas, layout.FormatConfig{Inodes: inodes})
}

// New starts an engine over the (already formatted) replica set: it reads
// the complete inode table into RAM, scans it for consistency, rebuilds the
// disk free list from the inodes, and readies the cache (paper §3 startup
// sequence). Inodes the scan had to zero are persisted back to disk.
func New(replicas *disk.ReplicaSet, opts Options) (*Server, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	replicas.Drain() // settle any in-flight writes from a previous engine
	table, report, err := layout.Load(replicas)
	if err != nil {
		return nil, fmt.Errorf("bullet: loading inode table: %w", err)
	}
	for _, p := range report.Problems {
		if err := table.WriteInode(replicas, p.Inode); err != nil {
			return nil, fmt.Errorf("bullet: persisting scan fix for inode %d: %w", p.Inode, err)
		}
	}
	// A v1 (pre-checksum) disk is upgraded in place when the tail of its
	// data area is free; if a file is in the way the table stays v1 and
	// checksums live in RAM only until the next boot finds the tail clear.
	upgraded, err := table.UpgradeInPlace(replicas)
	if err != nil {
		return nil, fmt.Errorf("bullet: upgrading layout to v2: %w", err)
	}
	desc := table.Desc()

	var used []alloc.Extent
	table.ForEachUsed(func(_ uint32, ino layout.Inode) {
		used = append(used, alloc.Extent{
			Start: int64(ino.FirstBlock),
			Count: ino.Blocks(desc.BlockSize),
		})
	})
	dalloc, err := alloc.NewFromUsed(desc.DataSize, used)
	if err != nil {
		return nil, fmt.Errorf("bullet: rebuilding free list: %w", err)
	}
	fileCache, err := cache.New(opts.CacheBytes, opts.MaxCachedFiles)
	if err != nil {
		return nil, fmt.Errorf("bullet: building cache: %w", err)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = stats.NewRegistry()
	}
	s := &Server{
		port:     opts.Port,
		replicas: replicas,
		desc:     desc,
		table:    table,
		dalloc:   dalloc,
		cache:    fileCache,
		maxFile:  opts.CacheBytes,
		inoMu:    make([]sync.Mutex, replicas.N()),
		inoBuf:   make([][]byte, replicas.N()),
		metrics:  reg,
		m:        newEngineMetrics(reg, replicas.N()),
		capCache: make(map[uint32]map[capability.Capability]capability.Rights),
		faults:   make(map[uint32]*faultCall),
		tickets:  make(map[uint32]commitTicket),
		placed:   make(map[*byte]*Placement),
	}
	for i := range s.inoBuf {
		s.inoBuf[i] = make([]byte, desc.BlockSize)
	}
	fileCache.AttachMetrics(reg)
	replicas.AttachMetrics(reg)
	if opts.GroupCommitWindow > 0 {
		s.committer = disk.NewGroupCommitter(replicas, opts.GroupCommitWindow, opts.GroupCommitBatch,
			func(i int, dev disk.Device, tags []uint32) error {
				s.inoMu[i].Lock()
				defer s.inoMu[i].Unlock()
				return s.table.WriteInodes(dev, tags, s.inoBuf[i])
			})
		s.committer.AttachMetrics(reg)
	}
	if upgraded {
		reg.Counter("bullet.table_upgrades").Inc()
	}
	reg.GaugeFunc("bullet.sum_dirty_blocks", func() int64 { return int64(s.table.DirtySums()) })
	reg.GaugeFunc("bullet.live_files", func() int64 { return int64(s.Live()) })
	reg.GaugeFunc("bullet.data_blocks_used", func() int64 { return s.DiskStats().Used })
	reg.GaugeFunc("bullet.data_blocks_free", func() int64 { return s.DiskStats().Free })
	reg.GaugeFunc("bullet.data_largest_free", func() int64 { return s.DiskStats().LargestFree })
	return s, nil
}

// Port returns the server's capability port.
func (s *Server) Port() capability.Port { return s.port }

// MaxFileSize returns the largest file this server accepts: it must fit in
// the RAM cache whole.
func (s *Server) MaxFileSize() int64 { return s.maxFile }

// verify resolves a capability to its inode, checking the check field and
// the required rights. Successful check-field validations are remembered
// (paper §2.1), so only the rights test runs on repeats.
//
// Callers must hold s.mu (shared suffices). The lock keeps verification
// and Delete's capability-cache purge ordered: without it, a slow verify
// could re-insert a dead capability after the purge, and a reused inode
// slot would then honor the old file's capability.
func (s *Server) verify(c capability.Capability, want capability.Rights) (uint32, layout.Inode, error) {
	return s.verifyCap(c, want, true)
}

// verifyCap is verify; with remember false a check-field validation is not
// cached. DELETE passes false: its capability dies with the file, and
// caching it would only allocate an entry for forgetCaps to drop.
func (s *Server) verifyCap(c capability.Capability, want capability.Rights, remember bool) (uint32, layout.Inode, error) {
	if c.Port != s.port {
		return 0, layout.Inode{}, fmt.Errorf("capability for another server: %w", ErrNoSuchFile)
	}
	ino, err := s.table.Get(c.Object)
	if err != nil {
		return 0, layout.Inode{}, fmt.Errorf("object %d: %w", c.Object, ErrNoSuchFile)
	}
	s.capMu.RLock()
	rights, ok := s.capCache[c.Object][c]
	s.capMu.RUnlock()
	if ok {
		s.m.capCacheHits.Inc()
		if !rights.Has(want) {
			return 0, layout.Inode{}, fmt.Errorf("need rights %08b, have %08b: %w",
				want, rights, capability.ErrBadRights)
		}
		return c.Object, ino, nil
	}
	rights, err = capability.Verify(c, ino.Random)
	if err != nil {
		return 0, layout.Inode{}, err
	}
	if remember {
		s.remember(c, rights)
	}
	if !rights.Has(want) {
		return 0, layout.Inode{}, fmt.Errorf("need rights %08b, have %08b: %w",
			want, rights, capability.ErrBadRights)
	}
	return c.Object, ino, nil
}

// remember caches a successful check-field validation of c.
func (s *Server) remember(c capability.Capability, rights capability.Rights) {
	s.capMu.Lock()
	if s.capCount >= maxCapCache {
		clear(s.capCache)
		s.capCount = 0
	}
	byCap := s.capCache[c.Object]
	if byCap == nil {
		byCap = make(map[capability.Capability]capability.Rights, 1)
		s.capCache[c.Object] = byCap
	}
	if _, dup := byCap[c]; !dup { // two verifies of one capability can race here
		s.capCount++
	}
	byCap[c] = rights
	s.capMu.Unlock()
}

// forgetCaps drops cached capability validations for an object; its
// random number dies with it, and the inode slot will be reused. The
// deleting caller holds s.mu exclusively, which orders the purge against
// in-flight verifications (see verify).
func (s *Server) forgetCaps(obj uint32) {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	s.capCount -= len(s.capCache[obj])
	delete(s.capCache, obj)
}

// blocksFor returns the data-area blocks needed for a file of n bytes.
func (s *Server) blocksFor(n int64) int64 {
	return (layout.Inode{Size: uint32(clampUint32(n))}).Blocks(s.desc.BlockSize)
}

func clampUint32(n int64) uint32 {
	if n < 0 {
		return 0
	}
	if n > 0xFFFFFFFF {
		return 0xFFFFFFFF
	}
	return uint32(n)
}

// create is the body of CreateDeferred: it commits p, which it owns, as a
// new file. sp is the enclosing engine-layer create span (nil when
// untraced) under which the per-replica commit spans hang. later is the
// write-through the P-FACTOR did not wait for (disk.ReplicaSet.
// ApplyDeferred; nil when there is none, and on every error): the caller
// replies, then runs it.
func (s *Server) create(tc *trace.Ctx, sp *trace.Span, p *Placement, pfactor int) (_ capability.Capability, later func(), err error) {
	pin := p.pin // nil: the cache refused the placement, and the create runs uncached
	if pfactor < 0 || pfactor > s.replicas.N() {
		s.abandon(pin, 0)
		return capability.Capability{}, nil, fmt.Errorf("p-factor %d with %d disks: %w",
			pfactor, s.replicas.N(), ErrBadPFactor)
	}
	random, err := capability.NewRandom()
	if err != nil {
		s.abandon(pin, 0)
		return capability.Capability{}, nil, err
	}
	size := int64(p.size)
	blocks := s.blocksFor(size)
	// The file's CRC32C, computed before the lock: nobody else can reach
	// the placement's bytes.
	sum := layout.Checksum(p.Bytes())

	s.mu.Lock()
	// A contiguous extent in the data area, first fit; if fragmentation
	// defeats us but the space exists, compact the disk and retry (the
	// paper runs this nightly; we run it on demand).
	start, err := s.dalloc.Alloc(blocks)
	if errors.Is(err, alloc.ErrNoSpace) {
		if st := s.dalloc.Stats(); st.Free >= blocks {
			if cerr := s.compactDiskLocked(); cerr != nil {
				s.mu.Unlock()
				s.abandon(pin, 0)
				return capability.Capability{}, nil, cerr
			}
			start, err = s.dalloc.Alloc(blocks)
		}
	}
	if err != nil {
		s.mu.Unlock()
		s.abandon(pin, 0)
		return capability.Capability{}, nil, fmt.Errorf("%d blocks: %w", blocks, ErrDiskFull)
	}
	inode, err := s.table.Allocate(random, uint32(start), uint32(size))
	if err != nil {
		s.dalloc.Free(start, blocks) //nolint:errcheck // rollback of our own alloc
		s.mu.Unlock()
		s.abandon(pin, 0)
		return capability.Capability{}, nil, err
	}
	// Record the checksum at birth. The entry is only marked dirty here;
	// it reaches the disk's checksum area in batches (Sync, Close, the
	// scrubber), so the write-through below stays one inode block per
	// create. A lost flush costs a lazy recompute on the next boot's first
	// fault-in, never correctness.
	_ = s.table.SetSum(inode, sum)

	// The file is in the RAM cache already: BULLET.CREATE with P-FACTOR 0
	// returns "immediately after the file has been copied to the file
	// server's RAM cache, but before it has been stored on disk". Binding
	// the placement's slot to the inode publishes it; its pin lasts until
	// every replica holds the bytes — an eviction before then would let a
	// concurrent cache miss read unwritten disk. A placement the cache
	// refused (arena pinned solid under a write burst) makes an uncached
	// create with at least one synchronous disk write.
	var idx uint16
	// undo gives back the cache slot, the inode and the extent, and mu.
	undo := func() {
		if idx != 0 {
			_ = s.cache.Remove(idx, inode)
		}
		_ = s.table.Free(inode)
		s.dalloc.Free(start, blocks) //nolint:errcheck // rollback
		s.mu.Unlock()
	}
	if pin != nil {
		pin.Publish(inode)
		idx = pin.Slot()
		if err := s.table.SetCacheIndex(inode, idx); err != nil {
			pin.Release()
			undo()
			return capability.Capability{}, nil, err
		}
	} else {
		s.m.uncachedCreates.Inc()
		if pfactor == 0 {
			pfactor = 1
		}
	}
	// Deadline checkpoint: the last point where abandoning this create is
	// free. Past here the replica fan-out launches and its background
	// writes land in the allocated extent, so the budget is never checked
	// again — cancelling mid-commit would let this rollback free blocks
	// that in-flight writes still touch (internal/trace/deadline.go).
	if tc.DeadlineExceeded() {
		pin.Release()
		undo()
		return capability.Capability{}, nil, fmt.Errorf("bullet: create abandoned before commit: %w", trace.ErrDeadlineExceeded)
	}
	s.faultMu.Lock()
	s.lastGen++
	gen := s.lastGen
	s.tickets[inode] = commitTicket{gen: gen, queued: s.committer != nil}
	s.faultMu.Unlock()
	s.mu.Unlock()

	// Write-through: file bytes, then the whole disk block containing the
	// new inode, per replica — this goroutine writes the first pfactor
	// replicas (main first), replies, and writes the rest (later). The
	// inode block is copied from the table's disk image at write time, so
	// the delayed writes publish current (never stale) metadata. Every
	// replica is written straight from the placement's block-rounded
	// extent, whose pin lasts until every replica has settled.
	ext := p.ext
	settled := func() {
		// Every replica has finished (or failed): the disk copy is as
		// durable as it will get, so the cache entry may move again.
		pin.Release()
		s.passTicket(inode, gen, nil, true)
	}
	dataOff := s.desc.DataOffset(start)
	commitStart := time.Now()
	if s.committer != nil {
		// Group commit: the data write joins a batch that shares one
		// replica fan-out (the committer's epilogue writes each dirty
		// inode block once per batch). The entry's quorum wait still
		// honours this create's P-FACTOR — it may just cover batch-mates
		// too. P-FACTOR 0 returns at submission, exactly as the ungrouped
		// path returns at launch. Whoever flushes the batch writes its
		// remainder: the timer, a waiter, or (if this entry filled it) our
		// caller, after its reply.
		var done <-chan error
		done, later = s.committer.Submit(disk.GroupEntry{
			SyncN: pfactor,
			Tag:   inode,
			Op: func(i int, dev disk.Device) error {
				return dev.WriteAt(ext, dataOff)
			},
			OnSettled: settled,
			OnFlushed: func(later func()) { s.passTicket(inode, gen, later, false) },
		})
		err = nil
		if pfactor > 0 {
			err = <-done
		}
	} else {
		later, err = s.replicas.ApplyDeferred(tc, sp, pfactor, func(i int, dev disk.Device) error {
			if err := dev.WriteAt(ext, dataOff); err != nil {
				return err
			}
			return s.writeInode(i, dev, inode)
		}, settled)
		s.passTicket(inode, gen, later, false) // a no-op if settled already
	}
	if err != nil {
		// No disk accepted the file during the synchronous phase: undo —
		// once every write (a mirror's, if armed) is out of the extent and
		// the ticket has settled, as a waiter under mu needs.
		s.awaitCommit(inode)
		s.mu.Lock()
		undo()
		return capability.Capability{}, nil, fmt.Errorf("bullet: write-through failed: %w", err)
	}
	s.m.commit[pfactor].ObserveDuration(time.Since(commitStart))

	s.m.creates.Inc()
	s.m.bytesIn.Add(size)
	return capability.Owner(s.port, inode, random), later, nil
}

// writeInode writes the control block holding inode to replica i's dev,
// through that replica's buffer, under its inoMu stripe.
func (s *Server) writeInode(i int, dev disk.Device, inode uint32) error {
	s.inoMu[i].Lock()
	defer s.inoMu[i].Unlock()
	return s.table.WriteInodeBuf(dev, inode, s.inoBuf[i])
}

// clearEvicted clears the cache-index field of inodes whose cached copies
// were evicted. The clear is a compare-and-set on the evicted slot: if the
// inode's index no longer names that slot, a concurrent fault has already
// re-cached the file and the newer binding wins.
func (s *Server) clearEvicted(evicted []cache.Evicted) {
	for _, ev := range evicted {
		// The inode may have been deleted already; ignore ErrBadInode.
		_, _ = s.table.SetCacheIndexIf(ev.Inode, ev.Slot, 0)
	}
}

// sameRandom compares two inode random numbers in constant time. The
// incarnation checks below compare server-held values, but the random
// number is the raw material of the capability secret, so the repo's
// constant-time-comparison rule applies to it everywhere.
func sameRandom(a, b capability.Random) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}

// faultIn coalesces concurrent cache misses on one inode into a single
// disk read. The first caller becomes the leader and runs loadFile; the
// rest wait for it and then pin the slot it published, so every caller
// gets its own pin on the one cached copy and nobody copies. If the cache
// refused the leader's reservation, every caller leases the leader's heap
// copy instead. A waiter that finds nothing to pin and no such copy (the
// slot is already evicted) faults afresh. waited reports whether THIS
// caller merged onto another request's in-flight load (the trace's
// fault-merged attribute: the leader's span is not merged, so two
// concurrent cold reads show the attribute exactly once). The leader's
// disk and cache spans are recorded into the leader's own trace; a
// waiter's trace shows the merged fault span and its own cache lookup.
// The returned lease covers the whole file.
func (s *Server) faultIn(tc *trace.Ctx, parent *trace.Span, inode uint32, random capability.Random) (l *ReadLease, waited bool, err error) {
	for {
		s.faultMu.Lock()
		if fc, ok := s.faults[inode]; ok {
			merged := sameRandom(fc.random, random)
			if merged {
				fc.waiters++
			}
			if fc.done == nil {
				fc.done = make(chan struct{})
			}
			done := fc.done
			s.faultMu.Unlock()
			<-done
			if !merged {
				// The in-flight fault served a previous incarnation of this
				// inode number (deleted and reused); run our own.
				continue
			}
			waited = true
			s.m.faultMerges.Inc()
			// Deadline checkpoint: a waiter that outlived its budget in
			// the merge queue sheds now — its caller has already given
			// up, and handing back the data would only be thrown away.
			// The leader's load is unaffected (the data is cached).
			if tc.DeadlineExceeded() {
				return nil, true, fmt.Errorf("bullet: fault wait outlived the caller's budget: %w", trace.ErrDeadlineExceeded)
			}
			if fc.err != nil {
				return nil, true, fc.err
			}
			pinned, _, perr := s.pinCached(tc, parent, inode, random)
			if perr != nil || pinned != nil {
				return pinned, true, perr
			}
			if fc.owned != nil {
				return &ReadLease{data: fc.owned, size: int64(len(fc.owned)), shared: true}, true, nil
			}
			continue
		}
		fc := &faultCall{random: random}
		s.faults[inode] = fc
		s.faultMu.Unlock()

		l, fc.err = s.loadFile(tc, parent, inode, random)

		// Every waiter found fc in the table, under faultMu, and made done
		// there; past the delete nobody else can.
		s.faultMu.Lock()
		delete(s.faults, inode)
		if fc.done != nil {
			if l != nil && !l.Pinned() {
				fc.owned, l.shared = l.data, true
			}
			close(fc.done)
		}
		s.faultMu.Unlock()
		return l, waited, fc.err
	}
}

// pinCached pins the cached copy of inode, provided the inode still
// belongs to the incarnation random names. A nil lease with a nil error
// means the file is live but not cached; ino is the snapshot that says
// so. The metadata lock is held shared across check and pin, so a Delete
// cannot slip between them and hand back a reused slot's bytes.
func (s *Server) pinCached(tc *trace.Ctx, parent *trace.Span, inode uint32, random capability.Random) (*ReadLease, layout.Inode, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ino, err := s.table.Get(inode)
	if err != nil || !sameRandom(ino.Random, random) {
		return nil, ino, fmt.Errorf("object %d vanished during fault: %w", inode, ErrNoSuchFile)
	}
	if ino.CacheIndex == 0 {
		return nil, ino, nil
	}
	l := s.pinSlot(tc, parent, ino.CacheIndex, inode)
	if l == nil {
		// Stale index (evicted, not yet cleared): clear it ourselves.
		_, _ = s.table.SetCacheIndexIf(inode, ino.CacheIndex, 0)
		ino.CacheIndex = 0
		return nil, ino, nil
	}
	return l, ino, nil
}

// abandon gives back a reservation that will not be published: Remove
// dooms the slot and dropping the only pin reclaims its extent. A nil
// view (the cache refused the reservation) is a no-op.
func (s *Server) abandon(view *cache.View, inode uint32) {
	if view == nil {
		return
	}
	_ = s.cache.Remove(view.Slot(), inode)
	view.Release()
}

// loadFile is the fault leader's body: read the whole file contiguously
// from disk straight into the cache arena (§3: "the file can be read into
// the RAM cache" in one transfer), then publish it. The protocol is
// reserve → fill → revalidate → publish, the one a create's placement
// runs too (place.go):
//
//   - reserve: after the file's commit, claim a pinned, unfilled,
//     unpublished slot of the file's size (cache.Reserve; unlike a
//     create's, it needs no block-rounded tail). Nobody else
//     knows its number and lookups refuse it, so its bytes are this
//     goroutine's alone.
//   - fill: the replica read (and, for checksummed files, the CRC32C
//     verification with failover and repair) runs on those bytes with no
//     engine or cache lock held.
//   - revalidate: under the shared metadata lock, which excludes Delete
//     and disk compaction, the inode must still be the same incarnation at
//     the same extent; if the file moved during the unlocked read the
//     reservation is given back and the read retried.
//   - publish: still under that lock, mark the slot filled and name it in
//     the inode with a compare-and-set from 0.
//
// Every other exit — vanished, moved, read or checksum failure, lost CAS —
// abandons the slot, so bytes that failed verification are never named in
// an inode. The leader's lease is its reservation pin: a miss leaves for
// the socket from the arena exactly as a hit does. Only when the cache
// refuses the reservation (arena pinned solid) does the file travel in a
// heap buffer the lease owns, uncached.
func (s *Server) loadFile(tc *trace.Ctx, parent *trace.Span, inode uint32, random capability.Random) (*ReadLease, error) {
	s.cache.NoteMiss()
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		// Cached while we queued for fault leadership?
		l, ino, err := s.pinCached(tc, parent, inode, random)
		if err != nil || l != nil {
			return l, err
		}

		// Deadline checkpoint: the cache fault is about to commit to a
		// whole-file disk read (plus its create's write-through); a
		// caller whose budget is already spent sheds here instead. Reads
		// mutate nothing, so unlike create there is no rollback to guard.
		if tc.DeadlineExceeded() {
			return nil, fmt.Errorf("bullet: cache fault abandoned, budget spent: %w", trace.ErrDeadlineExceeded)
		}

		// The file's own write-through must land before its disk copy is
		// readable. The reservation comes after, so its pin — which blocks
		// cache compaction and shrinks what a create can evict — is never
		// held across that wait.
		s.awaitCommit(inode)

		view := new(cache.View)
		evicted, cerr := s.cache.ReserveTraced(tc, parent, view, inode, int64(ino.Size), int64(ino.Size))
		s.clearEvicted(evicted)
		var data []byte
		if cerr != nil {
			// Cache refusal is not fatal to the read itself; serve uncached.
			view = nil
			data = make([]byte, ino.Size)
		} else {
			data = view.Bytes()
		}
		var rerr error
		if ino.Size > 0 {
			off := s.desc.DataOffset(int64(ino.FirstBlock))
			// Verified fault-in: when the inode carries a CRC32C, a replica
			// copy is only accepted if it matches; a mismatch fails over to
			// the next replica and rewrites the bad extent in place.
			var verify func([]byte) bool
			if ino.HasSum {
				want := ino.Sum
				verify = func(p []byte) bool { return layout.Checksum(p) == want }
			}
			rerr = s.replicas.ReadVerified(tc, parent, data, off, verify)
		}

		s.mu.RLock()
		cur, gerr := s.table.Get(inode)
		if gerr != nil || !sameRandom(cur.Random, random) {
			s.mu.RUnlock()
			s.abandon(view, inode)
			return nil, fmt.Errorf("object %d vanished during fault: %w", inode, ErrNoSuchFile)
		}
		if cur.FirstBlock != ino.FirstBlock || cur.Size != ino.Size {
			s.mu.RUnlock()
			s.abandon(view, inode)
			continue // compaction moved the file mid-read; reread
		}
		if rerr != nil {
			s.mu.RUnlock()
			s.abandon(view, inode)
			// The inode did not move, so a checksum failure here means
			// every replica really holds corrupt data (not a stale read
			// racing compaction).
			if errors.Is(rerr, disk.ErrChecksum) {
				s.m.checksumFaults.Inc()
			}
			return nil, fmt.Errorf("bullet: reading file from disk: %w", rerr)
		}
		if !cur.HasSum {
			// Lazy backfill for files that predate checksums (v1-era disks):
			// the bytes just read — and just revalidated against the live
			// inode — define the file's CRC32C from here on.
			if s.table.SetSum(inode, layout.Checksum(data)) == nil {
				s.m.sumBackfills.Inc()
			}
		}
		l = &ReadLease{data: data, size: int64(len(data))}
		if view != nil {
			view.Publish(inode)
			if ok, _ := s.table.SetCacheIndexIf(inode, 0, view.Slot()); !ok {
				// The inode names another slot. The singleflight makes this
				// leader the only publisher for the inode, so it should not
				// happen; if it does, the bytes are good but the slot is an
				// orphan — doom it, and the lease's pin carries it until the
				// reply is written.
				_ = s.cache.Remove(view.Slot(), inode)
			}
			l.view = view
		}
		s.mu.RUnlock()
		return l, nil
	}
	return nil, fmt.Errorf("bullet: object %d kept moving during fault: %w", inode, ErrNoSuchFile)
}

// delete is the body of Delete; sp is the enclosing engine-layer delete
// span, and later the inode write's remainder, made once mu is released.
func (s *Server) delete(tc *trace.Ctx, sp *trace.Span, c capability.Capability) (later func(), err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	vsp := tc.Begin(sp, trace.LayerEngine, trace.OpVerify)
	inode, ino, err := s.verifyCap(c, RightDelete, false)
	annotate(vsp, inode, 0, 0, err)
	tc.End(vsp)
	if err != nil {
		return nil, err
	}
	// The freed extent becomes allocatable below; this file's own
	// write-through must land first, or it would clobber whatever file
	// reuses the extent. No other file's writes touch it.
	s.awaitCommit(inode)
	if ino.CacheIndex != 0 {
		// A pinned copy (readers mid-copy-out) is doomed, not freed; the
		// last reader's release reclaims it.
		_ = s.cache.Remove(ino.CacheIndex, inode)
	}
	s.forgetCaps(inode)
	if err := s.table.Free(inode); err != nil {
		return nil, err
	}
	// Deletion involves requests to all disks (paper §4 note under Fig. 2):
	// a full quorum, so this goroutine — still holding mu — writes the inode
	// block to each replica in turn.
	later, err = s.replicas.ApplyDeferred(tc, sp, s.replicas.N(), func(i int, dev disk.Device) error {
		return s.writeInode(i, dev, inode)
	}, nil)
	if err != nil {
		return later, fmt.Errorf("bullet: persisting delete: %w", err)
	}
	if err := s.dalloc.Free(int64(ino.FirstBlock), ino.Blocks(s.desc.BlockSize)); err != nil {
		return later, fmt.Errorf("bullet: freeing extent: %w", err)
	}
	s.m.deletes.Inc()
	return later, nil
}

// modify is the body of Modify; sp is the enclosing engine-layer modify
// span (the derived file's create hangs under it). The old bytes are
// copied straight from the lease into the new file's placement, and the
// lease is released before the create.
func (s *Server) modify(tc *trace.Ctx, sp *trace.Span, c capability.Capability, offset int64, data []byte, newSize int64, pfactor int) (capability.Capability, func(), error) {
	if offset < 0 {
		return capability.Capability{}, nil, fmt.Errorf("offset %d: %w", offset, ErrBadOffset)
	}
	// Modification requires both the read right (the old contents flow
	// into the new file) and the modify right.
	old, err := s.fetchLease(tc, sp, c, RightRead|RightModify, 0, -1)
	if err != nil {
		return capability.Capability{}, nil, err
	}

	size := newSize
	if size < 0 {
		size = old.Size()
		if end := offset + int64(len(data)); end > size {
			size = end
		}
	}
	// Bound before allocating: a hostile request could name a size in the
	// terabytes and the buffer is built here, not in create.
	if size > s.MaxFileSize() {
		old.Release()
		return capability.Capability{}, nil, fmt.Errorf("%d bytes: %w", size, ErrTooLarge)
	}
	if offset+int64(len(data)) > size {
		old.Release()
		return capability.Capability{}, nil, fmt.Errorf("splice [%d,%d) past size %d: %w",
			offset, offset+int64(len(data)), size, ErrBadOffset)
	}
	// The derived file is built where it will live, in a placement that
	// its create adopts.
	p, err := s.Place(tc, sp, int(size))
	if err != nil {
		old.Release()
		return capability.Capability{}, nil, err
	}
	merged := p.Bytes()
	clear(merged[copy(merged, old.Bytes()):]) // a slot holds an earlier file's bytes
	old.Release()
	copy(merged[offset:], data)

	nc, later, err := s.CreateDeferred(tc, sp, merged, pfactor)
	p.Abandon() // a no-op: the create adopted it
	if err != nil {
		return capability.Capability{}, nil, err
	}
	s.m.modifies.Inc()
	return nc, later, nil
}

// Stats returns a snapshot of the engine counters, synthesized from the
// metrics registry (the counters are atomic; the snapshot is not a single
// consistent cut, which matches the old lock-free read semantics closely
// enough for reporting).
func (s *Server) Stats() Stats {
	cs := s.cache.Stats()
	return Stats{
		Creates:      s.m.creates.Load(),
		Reads:        s.m.reads.Load(),
		Deletes:      s.m.deletes.Load(),
		Modifies:     s.m.modifies.Load(),
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
		CapCacheHits: s.m.capCacheHits.Load(),
		BytesIn:      s.m.bytesIn.Load(),
		BytesOut:     s.m.bytesOut.Load(),
		Compactions:  s.m.compactions.Load(),
		FaultMerges:  s.m.faultMerges.Load(),
	}
}

// Metrics returns the engine's stats registry — the full observability
// surface (counters, gauges, histograms) across every layer.
func (s *Server) Metrics() *stats.Registry { return s.metrics }

// StatsSnapshot returns a point-in-time view of the full metrics registry,
// authorized by c: any valid capability for a live file carrying the read
// right proves a legitimate client. Statistics are read-only, so the read
// right suffices.
func (s *Server) StatsSnapshot(c capability.Capability) (stats.Snapshot, error) {
	s.mu.RLock()
	_, _, err := s.verify(c, RightRead)
	s.mu.RUnlock()
	if err != nil {
		return stats.Snapshot{}, err
	}
	return s.metrics.Snapshot(), nil
}

// CacheStats returns the RAM cache counters.
func (s *Server) CacheStats() cache.Stats { return s.cache.Stats() }

// DiskStats returns the data-area allocator state (fragmentation etc.).
func (s *Server) DiskStats() alloc.Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dalloc.Stats()
}

// Live returns the number of stored files.
func (s *Server) Live() int { return s.table.Live() }

// Objects lists the object numbers of all live files — an administrative
// operation for the garbage collector (Amoeba reconciled the directory
// service against the Bullet store with exactly such a scan).
func (s *Server) Objects() []uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []uint32
	s.table.ForEachUsed(func(n uint32, _ layout.Inode) { out = append(out, n) })
	return out
}

// ReadObjectAdmin returns a live object's contents and its owner
// capability without presenting a capability — an administrative
// operation for operators of the server itself (disaster recovery scans,
// the garbage collector). It must never be exposed over the network.
func (s *Server) ReadObjectAdmin(obj uint32) ([]byte, capability.Capability, error) {
	s.mu.RLock()
	ino, err := s.table.Get(obj)
	s.mu.RUnlock()
	if err != nil {
		return nil, capability.Capability{}, fmt.Errorf("object %d: %w", obj, ErrNoSuchFile)
	}
	owner := capability.Owner(s.port, obj, ino.Random)
	data, err := s.Read(owner)
	if err != nil {
		return nil, capability.Capability{}, err
	}
	return data, owner, nil
}

// SweepExcept deletes every file whose object number is not in keep — the
// sweep half of the Amoeba garbage collector. It is an administrative,
// server-side operation (no capabilities involved) and must only run when
// the reference set is complete and stable, i.e. during quiescence: a
// file created after keep was collected but before the sweep would be
// reclaimed wrongly. The paper's operational answer — do maintenance "at
// say 3 am when the system is lightly loaded" — applies.
func (s *Server) SweepExcept(keep map[uint32]bool) (int, error) {
	s.mu.RLock()
	var victims []uint32
	var inos []layout.Inode
	s.table.ForEachUsed(func(n uint32, ino layout.Inode) {
		if !keep[n] {
			victims = append(victims, n)
			inos = append(inos, ino)
		}
	})
	s.mu.RUnlock()

	for i, n := range victims {
		// Build an owner capability from the stored random and run the
		// ordinary delete path, so cache, disk free list and write-through
		// all stay consistent.
		c := capability.Owner(s.port, n, inos[i].Random)
		if err := s.Delete(nil, nil, c); err != nil {
			return i, fmt.Errorf("bullet: sweeping object %d: %w", n, err)
		}
	}
	return len(victims), nil
}

// passTicket moves inode's ticket gen on — out of the group committer's
// queue, holding the remainder later — or ends it when settled, and wakes
// its waiters; a no-op once that ticket has ended.
func (s *Server) passTicket(inode uint32, gen uint64, later func(), settled bool) {
	s.faultMu.Lock()
	if t, ok := s.tickets[inode]; ok && t.gen == gen {
		if t.done != nil {
			close(t.done)
		}
		s.tickets[inode] = commitTicket{gen: gen, later: later}
		if settled {
			delete(s.tickets, inode)
		}
	}
	s.faultMu.Unlock()
}

// awaitCommit returns once inode's create, if in flight, has finished on
// every replica; it waits for no other file. It flushes the entry out of
// the group committer, or writes a remainder nobody has started, itself
// (the owner may be stuck behind a client that stopped reading), or else
// sleeps until the ticket moves. Nothing that moves a ticket takes mu.
func (s *Server) awaitCommit(inode uint32) {
	for {
		s.faultMu.Lock()
		t, ok := s.tickets[inode]
		if ok && t.later == nil && !t.queued && t.done == nil {
			t.done = make(chan struct{})
		}
		if ok { // a remainder is claimed: the next waiter sleeps
			s.tickets[inode] = commitTicket{gen: t.gen, queued: t.queued, done: t.done}
		}
		s.faultMu.Unlock()
		switch {
		case !ok:
			return
		case t.later != nil:
			t.later() // a no-op if its owner or a Drain got there first
		case !t.queued:
			<-t.done
		case !s.committer.FlushTag(inode):
			runtime.Gosched() // neither queued nor flushed: not yet submitted
		}
	}
}

// awaitCommits waits out every create in flight when it is called.
func (s *Server) awaitCommits() {
	s.faultMu.Lock()
	inodes := make([]uint32, 0, len(s.tickets))
	for inode := range s.tickets {
		inodes = append(inodes, inode)
	}
	s.faultMu.Unlock()
	for _, inode := range inodes {
		s.awaitCommit(inode)
	}
}

// Sync waits for every create in flight and every other replica write
// (Drain), then persists the checksum entries marked dirty since.
func (s *Server) Sync() {
	s.awaitCommits()
	s.replicas.Drain()
	_, _ = s.table.FlushSums(s.replicas)
}

// Close drains background writes (including any online recovery launched
// by StartRecover) and closes the disks.
func (s *Server) Close() error {
	s.Sync()
	s.bg.Wait()
	return s.replicas.Close()
}
