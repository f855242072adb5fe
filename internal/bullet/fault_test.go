package bullet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// These tests cover the fault-in-place miss path: the leader reserves a
// cache slot, the replica read fills and verifies it with no lock held,
// and only a revalidated inode gets the slot's number. Each one checks the
// cache's own books afterwards: no pin, extent or slot may outlive a fault
// that did not publish.

func (w *healWorld) counter(name string) int64 { return w.reg.Counter(name).Load() }

// cacheIndex returns the cache-index field of obj's inode.
func cacheIndex(t *testing.T, s *Server, obj uint32) uint16 {
	t.Helper()
	ino, err := s.table.Get(obj)
	if err != nil {
		t.Fatalf("table.Get(%d): %v", obj, err)
	}
	return ino.CacheIndex
}

// wantCacheEmpty asserts that nothing is cached, pinned or reserved.
func wantCacheEmpty(t *testing.T, s *Server) {
	t.Helper()
	if st := s.CacheStats(); st.Files != 0 || st.UsedBytes != 0 || st.PinnedViews != 0 {
		t.Fatalf("cache not empty: %+v", st)
	}
}

func TestFaultInPlaceFailsOverAndPublishesVerifiedBytes(t *testing.T) {
	w := newHealWorld(t, 3, nil)
	data := bytes.Repeat([]byte("disk -> arena -> socket "), 200)
	c := mustCreate(t, w.srv, data, 3)
	w.srv.Sync()
	srv := w.mustBoot(t)

	// The main's answer to the in-place read is corrupt: those bytes land
	// in the reserved slot first, and must be overwritten by a sibling's
	// verified copy before the slot is named anywhere.
	w.faulty[0].CorruptNextReads(1)
	lease, err := srv.ReadView(nil, nil, c, 0, -1)
	if err != nil {
		t.Fatalf("ReadView over a lying main: %v", err)
	}
	if !lease.Pinned() {
		t.Fatal("a miss must be leased off its reserved cache slot")
	}
	if !bytes.Equal(lease.Bytes(), data) {
		t.Fatal("leased bytes are not the file")
	}
	if w.set.ChecksumErrors(0) != 1 || w.set.Reads(1) != 1 {
		t.Fatalf("failover ladder: %d checksum errors on 0, %d reads on 1",
			w.set.ChecksumErrors(0), w.set.Reads(1))
	}
	idx := cacheIndex(t, srv, c.Object)
	if idx == 0 {
		t.Fatal("fault did not publish the slot")
	}
	if got, err := srv.cache.Get(idx, c.Object); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("published slot holds unverified bytes (err %v)", err)
	}
	st := srv.CacheStats()
	if st.Misses != 1 || st.Insertions != 1 || st.PinnedViews != 1 {
		t.Fatalf("one fault = one miss, one insertion, one pin: %+v", st)
	}
	if st.Hits != 1 { // the Get just above; the leader's own pin is not a hit
		t.Fatalf("Hits = %d: the leader's pin on its reservation counted as a hit", st.Hits)
	}
	lease.Release()
	if n := srv.CacheStats().PinnedViews; n != 0 {
		t.Fatalf("%d pins after release", n)
	}
	if w.counter("bullet.lease_pinned") != 1 || w.counter("bullet.lease_owned") != 0 || w.counter("bullet.read_copies") != 0 {
		t.Fatalf("lease_pinned/lease_owned/read_copies = %d/%d/%d, want 1/0/0",
			w.counter("bullet.lease_pinned"), w.counter("bullet.lease_owned"), w.counter("bullet.read_copies"))
	}

	// The next read is an ordinary hit on the published slot.
	reads := w.set.Reads(0) + w.set.Reads(1) + w.set.Reads(2)
	if got := mustRead(t, srv, c); !bytes.Equal(got, data) {
		t.Fatal("re-read corrupted")
	}
	if w.set.Reads(0)+w.set.Reads(1)+w.set.Reads(2) != reads {
		t.Fatal("re-read touched the disk")
	}
}

func TestFaultInPlaceAllReplicasCorrupt(t *testing.T) {
	w := newHealWorld(t, 2, nil)
	data := bytes.Repeat([]byte("nobody has a good copy "), 100)
	c := mustCreate(t, w.srv, data, 2)
	w.srv.Sync()
	srv := w.mustBoot(t)
	w.corruptStored(t, 0, c.Object)
	w.corruptStored(t, 1, c.Object)

	if _, err := srv.ReadView(nil, nil, c, 0, -1); !errors.Is(err, disk.ErrChecksum) {
		t.Fatalf("ReadView = %v, want ErrChecksum", err)
	}
	if idx := cacheIndex(t, srv, c.Object); idx != 0 {
		t.Fatalf("inode names slot %d, whose bytes failed verification", idx)
	}
	wantCacheEmpty(t, srv)
	if n := w.counter("bullet.checksum_faults"); n != 1 {
		t.Fatalf("checksum_faults = %d, want 1", n)
	}
	// The reclaimed extent is whole again: a file of the full arena fits.
	if _, _, err := srv.cache.Insert(9999, make([]byte, 1<<20)); err != nil {
		t.Fatalf("arena not whole after the failed fault: %v", err)
	}
}

// stallFault parks the next disk read on replica 0, starts a cold ReadView
// of c and returns once the fault leader is stuck inside that read — with
// its reservation made and no lock held. The caller acts, then calls
// resume and collects the read's outcome from the channel.
type faultResult struct {
	lease *ReadLease
	err   error
}

func stallFault(w *healWorld, srv *Server, c capability.Capability) (resume func(), done <-chan faultResult) {
	w.faulty[0].StallNextReads(1)
	ch := make(chan faultResult, 1)
	go func() {
		l, err := srv.ReadView(nil, nil, c, 0, -1)
		ch <- faultResult{l, err}
	}()
	w.faulty[0].WaitStalled(1)
	return w.faulty[0].ReleaseStalled, ch
}

func TestFaultRetriesWhenCompactionMovesFileMidRead(t *testing.T) {
	w := newHealWorld(t, 2, nil)
	hole := mustCreate(t, w.srv, bytes.Repeat([]byte{0xEE}, 4096), 2)
	data := bytes.Repeat([]byte("slides toward the start of the disk "), 120)
	c := mustCreate(t, w.srv, data, 2)
	w.srv.Sync()
	srv := w.mustBoot(t)
	if err := srv.Delete(nil, nil, hole); err != nil {
		t.Fatalf("Delete: %v", err)
	}

	resume, done := stallFault(w, srv, c)
	if st := srv.CacheStats(); st.Insertions != 1 || st.PinnedViews != 1 {
		t.Fatalf("the stalled leader should hold one reservation: %+v", st)
	}
	before, _ := srv.table.Get(c.Object)
	if err := srv.CompactDisk(); err != nil { // takes mu exclusively: the leader must hold no lock
		t.Fatalf("CompactDisk: %v", err)
	}
	if after, _ := srv.table.Get(c.Object); after.FirstBlock == before.FirstBlock {
		t.Fatal("compaction did not move the file; the test exercises nothing")
	}
	resume()
	r := <-done
	if r.err != nil {
		t.Fatalf("ReadView across a move: %v", r.err)
	}
	if !r.lease.Pinned() || !bytes.Equal(r.lease.Bytes(), data) {
		t.Fatal("retried fault returned the wrong bytes")
	}
	st := srv.CacheStats()
	if st.Insertions != 2 || st.Files != 1 || st.UsedBytes != int64(len(data)) || st.PinnedViews != 1 {
		t.Fatalf("first reservation must be reclaimed, the second published: %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("a retried fault is still one miss: %+v", st)
	}
	r.lease.Release()
	if got := mustRead(t, srv, c); !bytes.Equal(got, data) {
		t.Fatal("published copy corrupted")
	}
}

func TestDeleteDuringFaultRead(t *testing.T) {
	w := newHealWorld(t, 2, nil)
	data := bytes.Repeat([]byte("gone before the read returns "), 80)
	c := mustCreate(t, w.srv, data, 2)
	w.srv.Sync()
	srv := w.mustBoot(t)

	resume, done := stallFault(w, srv, c)
	if err := srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete under an in-flight fault: %v", err)
	}
	resume()
	if r := <-done; !errors.Is(r.err, ErrNoSuchFile) {
		t.Fatalf("ReadView of a file deleted mid-fault = %v, want ErrNoSuchFile", r.err)
	}
	wantCacheEmpty(t, srv)
}

func TestFaultServedFromOwnedBufferWhenArenaPinnedSolid(t *testing.T) {
	w := newHealWorld(t, 2, nil)
	srv, err := New(w.set, Options{Port: w.port, CacheBytes: 8 << 10, Metrics: w.reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	big := bytes.Repeat([]byte{1}, 6<<10)
	hog := mustCreate(t, srv, big, 2)
	pin, err := srv.ReadView(nil, nil, hog, 0, -1) // 6 of the arena's 8 KiB now immovable
	if err != nil {
		t.Fatalf("ReadView: %v", err)
	}
	data := bytes.Repeat([]byte{2}, 4<<10)
	c := mustCreate(t, srv, data, 2) // cannot be cached either
	if cacheIndex(t, srv, c.Object) != 0 {
		t.Fatal("set-up: the second file should not have fitted")
	}
	owned := w.counter("bullet.lease_owned")

	lease, err := srv.ReadView(nil, nil, c, 0, -1)
	if err != nil {
		t.Fatalf("ReadView with the arena pinned solid: %v", err)
	}
	if lease.Pinned() || !bytes.Equal(lease.Bytes(), data) {
		t.Fatalf("want the file in an owned buffer (pinned=%v)", lease.Pinned())
	}
	lease.Release()
	if got := w.counter("bullet.lease_owned") - owned; got != 1 {
		t.Fatalf("lease_owned moved by %d, want 1 (it now means: cache refused)", got)
	}
	if cacheIndex(t, srv, c.Object) != 0 {
		t.Fatal("an uncached fault must leave the cache index at 0")
	}
	if got := mustRead(t, srv, c); !bytes.Equal(got, data) { // the copying API takes the same fallback
		t.Fatal("Read via the owned-buffer fallback corrupted")
	}

	pin.Release()
	lease, err = srv.ReadView(nil, nil, c, 0, -1)
	if err != nil || !lease.Pinned() {
		t.Fatalf("with room again the fault must go in place: pinned=%v err=%v", lease != nil && lease.Pinned(), err)
	}
	lease.Release()
}

// TestConcurrentColdReadsShareOneSlot: N cold reads of one file cost one
// disk read and no copy — the leader keeps its reservation pin, every
// merged waiter takes a pin of its own on the slot the leader published.
func TestConcurrentColdReadsShareOneSlot(t *testing.T) {
	const n = 8
	w := newHealWorld(t, 2, nil)
	data := bytes.Repeat([]byte("one read, many pins "), 150)
	c := mustCreate(t, w.srv, data, 2)
	w.srv.Sync()
	srv := w.mustBoot(t)
	base := w.set.Reads(0) + w.set.Reads(1) // the boot read the inode table

	resume, first := stallFault(w, srv, c)
	rest := make(chan faultResult, n-1)
	for i := 1; i < n; i++ {
		go func() {
			l, err := srv.ReadView(nil, nil, c, 0, -1)
			rest <- faultResult{l, err}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.faultMu.Lock()
		waiters := 0
		if fc := srv.faults[c.Object]; fc != nil {
			waiters = fc.waiters
		}
		srv.faultMu.Unlock()
		if waiters == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d readers merged onto the in-flight fault", waiters, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	resume()

	leases := make([]*ReadLease, 0, n)
	for i := 0; i < n; i++ {
		var r faultResult
		if i == 0 {
			r = <-first
		} else {
			r = <-rest
		}
		if r.err != nil {
			t.Fatalf("cold read %d: %v", i, r.err)
		}
		if !r.lease.Pinned() || !bytes.Equal(r.lease.Bytes(), data) {
			t.Fatalf("cold read %d: pinned=%v, bytes ok=%v", i, r.lease.Pinned(), bytes.Equal(r.lease.Bytes(), data))
		}
		leases = append(leases, r.lease)
		if &r.lease.Bytes()[0] != &leases[0].Bytes()[0] {
			t.Fatalf("cold read %d was served from its own copy", i)
		}
	}
	if got := w.set.Reads(0) + w.set.Reads(1) - base; got != 1 {
		t.Fatalf("disk reads = %d, want 1", got)
	}
	if w.counter("bullet.read_copies") != 0 || w.counter("bullet.fault_merges") != n-1 {
		t.Fatalf("read_copies/fault_merges = %d/%d, want 0/%d",
			w.counter("bullet.read_copies"), w.counter("bullet.fault_merges"), n-1)
	}
	st := srv.CacheStats()
	if st.PinnedViews != n || st.Insertions != 1 || st.Misses != 1 || st.Files != 1 {
		t.Fatalf("while leased: %+v, want %d pins on one insertion, one miss", st, n)
	}
	for _, l := range leases {
		l.Release()
	}
	if got := srv.CacheStats().PinnedViews; got != 0 {
		t.Fatalf("%d pins left after %d releases", got, n)
	}
}

// TestConcurrentColdReadsShareOwnedBufferWhenArenaPinnedSolid: with no
// room in the cache, the fault leader reads the file into the heap, and N
// concurrent misses on it still cost one disk read: every merged waiter
// leases the leader's copy. Read, which hands an unshared owned buffer to
// its caller, copies a shared one, so scribbling on its result leaves the
// leases intact.
func TestConcurrentColdReadsShareOwnedBufferWhenArenaPinnedSolid(t *testing.T) {
	const n = 8
	w := newHealWorld(t, 2, nil)
	data := bytes.Repeat([]byte("one read, no room "), 200)
	c := mustCreate(t, w.srv, data, 2)
	w.srv.Sync()
	srv, err := New(w.set, Options{Port: w.port, CacheBytes: 8 << 10, Metrics: w.reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hog := mustCreate(t, srv, bytes.Repeat([]byte{1}, 6<<10), 2)
	srv.Sync()
	pin, err := srv.ReadView(nil, nil, hog, 0, -1) // 6 of the arena's 8 KiB now immovable
	if err != nil {
		t.Fatalf("ReadView: %v", err)
	}
	defer pin.Release()
	base := w.set.Reads(0) + w.set.Reads(1)
	merges := w.counter("bullet.fault_merges")

	resume, first := stallFault(w, srv, c)
	rest := make(chan faultResult, n-2)
	for i := 1; i < n-1; i++ {
		go func() {
			l, err := srv.ReadView(nil, nil, c, 0, -1)
			rest <- faultResult{l, err}
		}()
	}
	type readResult struct {
		data []byte
		err  error
	}
	copied := make(chan readResult, 1)
	go func() {
		b, err := srv.Read(c)
		copied <- readResult{b, err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.faultMu.Lock()
		waiters := 0
		if fc := srv.faults[c.Object]; fc != nil {
			waiters = fc.waiters
		}
		srv.faultMu.Unlock()
		if waiters == n-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d readers merged onto the in-flight fault", waiters, n-1)
		}
		time.Sleep(time.Millisecond)
	}
	resume()

	r := <-copied
	if r.err != nil || !bytes.Equal(r.data, data) {
		t.Fatalf("Read: err=%v, bytes ok=%v", r.err, bytes.Equal(r.data, data))
	}
	clear(r.data)
	leases := make([]*ReadLease, 0, n-1)
	for i := 0; i < n-1; i++ {
		var r faultResult
		if i == 0 {
			r = <-first
		} else {
			r = <-rest
		}
		if r.err != nil {
			t.Fatalf("cold read %d: %v", i, r.err)
		}
		if r.lease.Pinned() || !bytes.Equal(r.lease.Bytes(), data) {
			t.Fatalf("cold read %d: pinned=%v, bytes ok=%v", i, r.lease.Pinned(), bytes.Equal(r.lease.Bytes(), data))
		}
		leases = append(leases, r.lease)
		if &r.lease.Bytes()[0] != &leases[0].Bytes()[0] {
			t.Fatalf("cold read %d was served from a copy of its own", i)
		}
	}
	if got := w.set.Reads(0) + w.set.Reads(1) - base; got != 1 {
		t.Fatalf("disk reads = %d, want 1", got)
	}
	if got := w.counter("bullet.fault_merges") - merges; got != n-1 {
		t.Fatalf("fault_merges = %d, want %d", got, n-1)
	}
	if cacheIndex(t, srv, c.Object) != 0 {
		t.Fatal("an uncached fault must leave the cache index at 0")
	}
	for _, l := range leases {
		l.Release()
	}
	if got := srv.CacheStats().PinnedViews; got != 1 {
		t.Fatalf("%d pins left, want only the hog's", got)
	}
}

// TestUnmergedColdReadAllocs pins what a cache miss nobody merges onto
// allocates: the singleflight entry, the reservation's View, the lease and
// the eviction report — 4, under -race too. Two 4 KiB files take turns in
// a 4 KiB cache, so every read faults, alone. It used to be 8: the
// singleflight's done channel, made now only when a waiter arrives, and
// the formatted ErrNoSpace each eviction-driven placement met.
func TestUnmergedColdReadAllocs(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 4 << 10})
	a, b := bytes.Repeat([]byte{0xaa}, 4<<10), bytes.Repeat([]byte{0xbb}, 4<<10)
	ca, cb := mustCreate(t, w.srv, a, 2), mustCreate(t, w.srv, b, 2)
	misses := w.srv.CacheStats().Misses
	turn := 0
	read := func() {
		c, want := ca, a
		if turn++; turn%2 == 0 {
			c, want = cb, b
		}
		l, err := w.srv.ReadView(nil, nil, c, 0, -1)
		if err != nil {
			t.Fatalf("ReadView: %v", err)
		}
		if !bytes.Equal(l.Bytes(), want) {
			t.Fatal("cold read returned the wrong bytes")
		}
		l.Release()
	}
	read()
	allocs := testing.AllocsPerRun(100, read)
	if got := w.srv.CacheStats().Misses - misses; got != 102 {
		t.Fatalf("%d misses in 102 reads: the reads were not all cold", got)
	}
	if allocs > 4 {
		t.Errorf("unmerged cold ReadView: %.0f allocs, want <= 4", allocs)
	}
}
