package bullet

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// These tests exercise the concurrent read path: shared-lock reads over
// pinned cache views, the per-inode fault singleflight, and their
// interleaving with creates, deletes and both compactors. They are meant
// to run under -race (see the CI race-stress step).

func TestConcurrentReadersCreatorsDeleterCompaction(t *testing.T) {
	stressReadersCreatorsDeleterCompaction(t, Options{}, false)
}

// TestConcurrentColdReadersDeleterCompactorEvictions is the same stress
// over a cache a fraction of the stable set: nearly every read is a fault
// that reserves, fills and publishes a slot while other readers'
// reservations evict it, creates insert over it, the deleter dooms
// published slots and the disk compactor moves extents under in-flight
// fills.
func TestConcurrentColdReadersDeleterCompactorEvictions(t *testing.T) {
	stressReadersCreatorsDeleterCompaction(t, Options{CacheBytes: 2 << 10, MaxCachedFiles: 4}, true)
}

func stressReadersCreatorsDeleterCompaction(t *testing.T, opts Options, cold bool) {
	w := newWorld(t, 2, opts)

	type entry struct {
		cap  capability.Capability
		data []byte
	}
	// Stable files are never deleted: readers can always verify them.
	var stable []entry
	for i := 0; i < 8; i++ {
		d := bytes.Repeat([]byte{byte('a' + i)}, 300+37*i)
		stable = append(stable, entry{mustCreate(t, w.srv, d, 2), d})
	}

	var (
		mu        sync.Mutex
		pool      []entry // creators push, the deleter pops
		stop      = make(chan struct{})
		bounded   sync.WaitGroup // readers + creators: fixed iteration counts
		unbounded sync.WaitGroup // deleter + compactor: run until stop
		compacted atomic.Bool    // the cache has been compacted under the readers
	)

	// Readers hammer the shared-lock path over the stable set and, racily,
	// over the churned pool (a pool read may hit a deleted file, which is
	// a legitimate ErrNoSuchFile, not a failure). They go on past their
	// count until the cache compactor has once found a moment with no pin.
	for r := 0; r < 4; r++ {
		bounded.Add(1)
		go func(seed int64) {
			defer bounded.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 400 || !compacted.Load(); i++ {
				e := stable[rng.Intn(len(stable))]
				switch rng.Intn(4) {
				case 3:
					l, err := w.srv.ReadView(nil, nil, e.cap, 0, -1)
					if err != nil {
						t.Errorf("ReadView(stable): %v", err)
						return
					}
					ok := bytes.Equal(l.Bytes(), e.data)
					l.Release()
					if !ok {
						t.Errorf("ReadView(stable): wrong bytes")
						return
					}
				case 0:
					got, err := w.srv.Read(e.cap)
					if err != nil {
						t.Errorf("Read(stable): %v", err)
						return
					}
					if !bytes.Equal(got, e.data) {
						t.Errorf("Read(stable): wrong bytes")
						return
					}
				case 1:
					off := int64(rng.Intn(len(e.data)))
					got, err := readRange(w.srv, e.cap, off, 64)
					if err != nil {
						t.Errorf("ReadRange(stable): %v", err)
						return
					}
					end := off + 64
					if end > int64(len(e.data)) {
						end = int64(len(e.data))
					}
					if !bytes.Equal(got, e.data[off:end]) {
						t.Errorf("ReadRange(stable): wrong bytes at %d", off)
						return
					}
				default:
					if n, err := w.srv.Size(nil, nil, e.cap); err != nil || n != int64(len(e.data)) {
						t.Errorf("Size(stable) = %d, %v; want %d", n, err, len(e.data))
						return
					}
				}
				mu.Lock()
				var churn entry
				if len(pool) > 0 {
					churn = pool[rng.Intn(len(pool))]
				}
				mu.Unlock()
				if churn.data != nil {
					if got, err := w.srv.Read(churn.cap); err == nil && !bytes.Equal(got, churn.data) {
						t.Errorf("Read(pool): wrong bytes")
						return
					}
				}
			}
		}(int64(r))
	}

	// Creators allocate and publish into the pool.
	for c := 0; c < 2; c++ {
		bounded.Add(1)
		go func(seed int64) {
			defer bounded.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 60; i++ {
				d := bytes.Repeat([]byte{byte(rng.Intn(256))}, 100+rng.Intn(900))
				cp, err := w.srv.Create(d, 1+rng.Intn(2))
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				mu.Lock()
				pool = append(pool, entry{cp, d})
				mu.Unlock()
			}
		}(int64(c))
	}

	// The deleter drains the pool while everything else runs.
	unbounded.Add(1)
	go func() {
		defer unbounded.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			var victim entry
			if len(pool) > 1 {
				i := rng.Intn(len(pool))
				victim = pool[i]
				pool = append(pool[:i], pool[i+1:]...)
			}
			mu.Unlock()
			if victim.data == nil {
				time.Sleep(time.Millisecond)
				continue
			}
			if err := w.srv.Delete(nil, nil, victim.cap); err != nil {
				t.Errorf("Delete: %v", err)
				return
			}
		}
	}()

	// Both compactors run alongside; disk compaction takes the exclusive
	// lock, cache compaction defers to pinned views.
	unbounded.Add(1)
	go func() {
		defer unbounded.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.srv.CompactDisk(); err != nil {
				t.Errorf("CompactDisk: %v", err)
				return
			}
			if err := w.srv.CompactCache(); err != nil {
				t.Errorf("CompactCache: %v", err)
				return
			}
			if w.srv.CacheStats().Compactions > 0 {
				compacted.Store(true)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers and creators run to their iteration counts; then the
	// deleter and compactor are told to stop. A watchdog catches wedges
	// (a deadlock here means the lock hierarchy is broken).
	finished := make(chan struct{})
	go func() {
		bounded.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(60 * time.Second):
		t.Fatal("stress test wedged: readers/creators did not finish, or the cache never compacted")
	}
	close(stop)
	unbounded.Wait()

	// Settle and verify: every stable file and every survivor in the pool
	// still reads back intact, and the engine agrees with itself.
	w.srv.Sync()
	for i, e := range stable {
		if got := mustRead(t, w.srv, e.cap); !bytes.Equal(got, e.data) {
			t.Fatalf("stable file %d corrupted after stress", i)
		}
	}
	mu.Lock()
	survivors := append([]entry(nil), pool...)
	mu.Unlock()
	for i, e := range survivors {
		if got := mustRead(t, w.srv, e.cap); !bytes.Equal(got, e.data) {
			t.Fatalf("pool file %d corrupted after stress", i)
		}
	}
	if err := w.srv.CompactDisk(); err != nil {
		t.Fatalf("final CompactDisk: %v", err)
	}
	for i, e := range stable {
		if got := mustRead(t, w.srv, e.cap); !bytes.Equal(got, e.data) {
			t.Fatalf("stable file %d corrupted by final compaction", i)
		}
	}

	// The cache's own books: no pin outlived its reader, and every slot
	// still cached is named by the inode it belongs to — no reservation
	// was orphaned by a fault that did not publish.
	st := w.srv.CacheStats()
	if st.PinnedViews != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	if cold && (st.Misses == 0 || st.Evictions == 0) {
		t.Fatalf("the cold stress never missed or evicted: %+v", st)
	}
	if st.Compactions == 0 {
		t.Fatalf("the cache was never compacted: %+v", st)
	}
	named := 0
	for _, obj := range w.srv.Objects() {
		if idx := cacheIndex(t, w.srv, obj); idx != 0 {
			if _, err := w.srv.cache.Get(idx, obj); err == nil {
				named++
			}
		}
	}
	if st.Files != named {
		t.Fatalf("%d files cached but %d named by live inodes", st.Files, named)
	}
}

// gateDevice parks every ReadAt while armed: the test uses it to hold a
// fault leader inside its disk read so a second miss can merge with it.
type gateDevice struct {
	disk.Device
	armed   atomic.Bool
	entered chan struct{} // signalled when a read parks
	release chan struct{} // closed to let parked reads proceed
}

func (d *gateDevice) ReadAt(p []byte, off int64) error {
	if d.armed.Load() {
		select {
		case d.entered <- struct{}{}:
		default:
		}
		<-d.release
	}
	return d.Device.ReadAt(p, off)
}

func TestConcurrentMissesShareOneDiskRead(t *testing.T) {
	mem, err := disk.NewMem(512, 4096)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	gate := &gateDevice{Device: mem, entered: make(chan struct{}, 1), release: make(chan struct{})}
	var releaseOnce sync.Once
	release := func() {
		gate.armed.Store(false)
		releaseOnce.Do(func() { close(gate.release) })
	}
	defer release()

	set, err := disk.NewReplicaSet(gate)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := Format(set, 100); err != nil {
		t.Fatalf("Format: %v", err)
	}
	srv1, err := New(set, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	data := bytes.Repeat([]byte{0xAB}, 2048)
	c := mustCreate(t, srv1, data, 1)
	srv1.Sync()

	// A fresh server over the same disks starts with a cold cache (the
	// startup scan strips cache indexes), so the first reads both miss.
	srv2, err := New(set, Options{Port: srv1.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	base := set.Reads(0)
	gate.armed.Store(true)

	results := make(chan error, 2)
	read := func() {
		got, rerr := srv2.Read(c)
		if rerr == nil && !bytes.Equal(got, data) {
			rerr = fmt.Errorf("read returned wrong bytes")
		}
		results <- rerr
	}
	go read()
	<-gate.entered // the fault leader is parked inside its disk read
	go read()

	// Wait until the second reader has registered on the in-flight fault,
	// proving it merged rather than queued behind a lock.
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv2.faultMu.Lock()
		merged := false
		for _, fc := range srv2.faults {
			if fc.waiters > 0 {
				merged = true
			}
		}
		srv2.faultMu.Unlock()
		if merged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second reader never merged onto the in-flight fault")
		}
		time.Sleep(time.Millisecond)
	}
	release()

	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("concurrent read %d: %v", i, err)
		}
	}
	if got := set.Reads(0) - base; got != 1 {
		t.Fatalf("disk reads for two concurrent misses = %d, want 1", got)
	}
	if m := srv2.Stats().FaultMerges; m != 1 {
		t.Fatalf("FaultMerges = %d, want 1", m)
	}
	// The fault published the file: a third read is a pure cache hit.
	hitsBefore := srv2.CacheStats().Hits
	if got := mustRead(t, srv2, c); !bytes.Equal(got, data) {
		t.Fatal("post-fault read corrupted")
	}
	if srv2.CacheStats().Hits != hitsBefore+1 {
		t.Fatal("post-fault read did not hit the cache")
	}
	if got := set.Reads(0) - base; got != 1 {
		t.Fatalf("post-fault read touched the disk: reads = %d", got)
	}
}
