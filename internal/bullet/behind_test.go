package bullet

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/stats"
)

// heldWrites parks every WriteAt while armed.
type heldWrites struct {
	disk.Device
	armed   atomic.Bool
	entered chan struct{} // signalled when a write parks
	release chan struct{} // closed to let parked writes proceed
}

func (d *heldWrites) WriteAt(p []byte, off int64) error {
	if d.armed.Load() {
		d.entered <- struct{}{}
		<-d.release
	}
	return d.Device.WriteAt(p, off)
}

// TestDeferredMirrorWriteLandsBeforeRollback: every live replica rejects a
// create while a third is mid-recovery, so the commit fails with the
// mirror's write still to do. The engine must do that write before it
// gives the extent back — a rollback with a write still heading for the
// extent would let it land on whatever file reuses the blocks.
func TestDeferredMirrorWriteLandsBeforeRollback(t *testing.T) {
	faulty := make([]*disk.FaultyDisk, 3)
	devs := make([]disk.Device, 3)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatal(err)
		}
		faulty[i] = disk.NewFaulty(mem)
		devs[i] = faulty[i]
	}
	held := &heldWrites{Device: faulty[2], entered: make(chan struct{}), release: make(chan struct{})}
	devs[2] = held
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := Format(set, 100); err != nil {
		t.Fatal(err)
	}
	srv, err := New(set, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// Replica 2 dies, is repaired, and its recovery parks in the first
	// write of the bulk copy: from here on every commit is mirrored to it.
	faulty[2].Fault()
	mustCreate(t, srv, []byte("replica 2 misses this one"), 2)
	set.Drain()
	if set.Alive(2) {
		t.Fatal("replica 2 still alive after a failed write")
	}
	faulty[2].Heal()
	held.armed.Store(true)
	recovered := make(chan error, 1)
	go func() { recovered <- set.Recover(2) }()
	<-held.entered

	cacheBefore, diskBefore, live := srv.CacheStats(), srv.DiskStats(), srv.Live()
	faulty[0].FailAfterWrites(0)
	faulty[1].FailAfterWrites(0)
	created := make(chan error, 1)
	go func() {
		_, err := srv.Create(bytes.Repeat([]byte{3}, 2000), 1)
		created <- err
	}()
	select {
	case <-held.entered: // the mirror's write, on the creating goroutine
	case err := <-created:
		t.Fatalf("create returned (%v) before its mirror write was made", err)
	}
	select {
	case err := <-created:
		t.Fatalf("create returned (%v) with its mirror write still in flight", err)
	default:
	}
	if got := srv.DiskStats(); got.Used <= diskBefore.Used || srv.Live() != live+1 {
		t.Fatalf("rolled back with the mirror write in flight: used %d -> %d, live %d -> %d",
			diskBefore.Used, got.Used, live, srv.Live())
	}

	held.armed.Store(false)
	close(held.release)
	if err := <-created; !errors.Is(err, disk.ErrNoReplica) {
		t.Fatalf("create with every live replica failing: %v, want ErrNoReplica", err)
	}
	if err := <-recovered; err == nil {
		t.Fatal("recovery succeeded with its source dead")
	}
	set.Drain()
	cs := srv.CacheStats()
	if got := srv.DiskStats(); got != diskBefore || srv.Live() != live || cs.PinnedViews != 0 || cs.UsedBytes != cacheBefore.UsedBytes {
		t.Fatalf("after the failed create: disk %+v (want %+v), live %d (want %d), pins %d, cache bytes %d (want %d)",
			got, diskBefore, srv.Live(), live, cs.PinnedViews, cs.UsedBytes, cacheBefore.UsedBytes)
	}
}

// perFileModes are the commit paths a create can take: its own fan-out,
// a group-commit batch flushed by the window's timer, and one flushed by
// the create that fills it (a batch of one).
var perFileModes = []struct {
	name string
	opts Options
}{
	{"direct", Options{}},
	{"grouped", Options{GroupCommitWindow: 50 * time.Microsecond}},
	{"forced", Options{GroupCommitWindow: time.Hour, GroupCommitBatch: 1}},
}

// forEachMode runs test once per commit path.
func forEachMode(t *testing.T, test func(t *testing.T, opts Options)) {
	for _, m := range perFileModes {
		t.Run(m.name, func(t *testing.T) { test(t, m.opts) })
	}
}

// bootWith restarts w's engine with opts (and w's port, so capabilities
// survive).
func bootWith(t *testing.T, w *healWorld, opts Options) *Server {
	t.Helper()
	opts.Port, opts.Metrics = w.port, stats.NewRegistry()
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 1 << 20
	}
	srv, err := New(w.set, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.srv = srv
	return srv
}

// perFileWorld is two replicas whose second one's writes can be held, and
// an engine that has B and C cached, D on disk only (an earlier boot made
// it), and the write-behind of file A — created at P-FACTOR 1 — parked
// inside replica 1's write until the test ends. Nothing else is held.
type perFileWorld struct {
	srv     *Server
	b, c, d capability.Capability
}

func perFile(tag byte) []byte { return bytes.Repeat([]byte{tag}, 3000) }

func newPerFileWorld(t *testing.T, opts Options) *perFileWorld {
	t.Helper()
	var held *heldWrites
	w := newHealWorld(t, 2, func(i int, dev disk.Device) disk.Device {
		if i == 1 {
			held = &heldWrites{Device: dev, entered: make(chan struct{}), release: make(chan struct{})}
			return held
		}
		return dev
	})
	pw := &perFileWorld{d: mustCreate(t, w.srv, perFile('d'), 2)}
	w.srv.Sync()
	pw.srv = bootWith(t, w, opts) // a cold cache: D is on disk only
	pw.b, pw.c = mustCreate(t, pw.srv, perFile('b'), 2), mustCreate(t, pw.srv, perFile('c'), 2)
	held.armed.Store(true)
	// A's create returns at its quorum, whoever then writes the remainder.
	within(t, "the create of A", func() error { _, err := pw.srv.Create(perFile('a'), 1); return err })
	<-held.entered // A's remainder, inside replica 1's write
	held.armed.Store(false)
	t.Cleanup(func() {
		close(held.release)
		pw.srv.Sync()
	})
	return pw
}

// within fails the test unless op returns, without error, well inside a
// bound that a request waiting for A's parked write never meets.
func within(t *testing.T, what string, op func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- op() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s is still waiting, behind another file's write-behind", what)
	}
}

// readFile reads c and checks its bytes.
func readFile(s *Server, c capability.Capability, tag byte) error {
	got, err := s.Read(c)
	if err == nil && !bytes.Equal(got, perFile(tag)) {
		err = errors.New("wrong bytes")
	}
	return err
}

// TestPerFileWaitMiss: a cache miss on D waits for D's commit only, not
// for A's write-behind held on the other replica.
func TestPerFileWaitMiss(t *testing.T) {
	forEachMode(t, func(t *testing.T, opts Options) {
		w := newPerFileWorld(t, opts)
		misses := w.srv.CacheStats().Misses
		within(t, "a miss on D", func() error { return readFile(w.srv, w.d, 'd') })
		if got := w.srv.CacheStats().Misses; got != misses+1 {
			t.Fatalf("misses %d -> %d: the read of D was not a miss", misses, got)
		}
	})
}

// TestPerFileWaitCreate: a create at P-FACTOR 1 returns at its own quorum,
// and its file reads back, while A's write-behind is held — whichever
// goroutine flushed A's group-commit batch is writing A's remainder, not
// holding up the next batch.
func TestPerFileWaitCreate(t *testing.T) {
	forEachMode(t, func(t *testing.T, opts Options) {
		w := newPerFileWorld(t, opts)
		var e capability.Capability
		within(t, "a create of E", func() (err error) { e, err = w.srv.Create(perFile('e'), 1); return err })
		within(t, "a read of E", func() error { return readFile(w.srv, e, 'e') })
	})
}

// TestPerFileWaitDelete: a delete of B, which holds the metadata lock
// exclusively while it waits for B's commit, does not wait for A's.
func TestPerFileWaitDelete(t *testing.T) {
	forEachMode(t, func(t *testing.T, opts Options) {
		w := newPerFileWorld(t, opts)
		within(t, "a delete of B", func() error { return w.srv.Delete(nil, nil, w.b) })
		if _, err := w.srv.Read(w.b); !errors.Is(err, ErrNoSuchFile) {
			t.Fatalf("B after its delete: %v, want ErrNoSuchFile", err)
		}
	})
}

// TestPerFileWaitHitBehindDelete: a cache hit on C issued while a delete
// of B holds the metadata lock gets its turn as soon as that delete is
// done with B — which no longer means once A's write-behind has landed.
func TestPerFileWaitHitBehindDelete(t *testing.T) {
	forEachMode(t, func(t *testing.T, opts Options) {
		w := newPerFileWorld(t, opts)
		deleted := make(chan error, 1)
		go func() { deleted <- w.srv.Delete(nil, nil, w.b) }()
		// Issue the hit once the delete holds the lock (or is already done).
		for behind := false; !behind; {
			select {
			case err := <-deleted:
				deleted <- err
				behind = true
			default:
				if behind = !w.srv.mu.TryRLock(); !behind {
					w.srv.mu.RUnlock()
					runtime.Gosched()
				}
			}
		}
		hits := w.srv.CacheStats().Hits
		within(t, "a hit on C behind a delete of B", func() error { return readFile(w.srv, w.c, 'c') })
		if got := w.srv.CacheStats().Hits; got != hits+1 {
			t.Fatalf("hits %d -> %d: the read of C was not a hit", hits, got)
		}
		within(t, "the delete of B", func() error { return <-deleted })
	})
}

// TestPerFileWaitWritesOwnRemainder: a create whose owner never runs its
// later — a reply stuck behind a client that stopped reading — stops
// neither a miss on its file nor a delete of it: the waiter writes the
// parked remainder itself, and the owner's late call is a no-op. A forced
// group-commit flush hands its remainder to the owner the same way.
func TestPerFileWaitWritesOwnRemainder(t *testing.T) {
	for _, m := range perFileModes {
		if m.opts.GroupCommitBatch != 1 && m.opts.GroupCommitWindow != 0 {
			continue // the window's timer, not the owner, writes the remainder
		}
		t.Run(m.name, func(t *testing.T) {
			opts := m.opts
			opts.CacheBytes = 16 << 10
			w := newWorld(t, 2, opts)
			big := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 10<<10) }
			x, laterX, err := w.srv.CreateDeferred(nil, nil, big('x'), 1)
			if err != nil || laterX == nil {
				t.Fatalf("create X: later nil: %v, err %v", laterX == nil, err)
			}
			// X's pin leaves no room in the arena: Y is created uncached, so the
			// read below is a miss.
			y, laterY, err := w.srv.CreateDeferred(nil, nil, big('y'), 1)
			if err != nil || laterY == nil || w.srv.m.uncachedCreates.Load() != 1 {
				t.Fatalf("create Y: later nil: %v, err %v, uncached creates %d", laterY == nil, err, w.srv.m.uncachedCreates.Load())
			}
			writes := w.set.Writes(1)

			misses := w.srv.CacheStats().Misses
			within(t, "a miss on Y", func() error {
				got, err := w.srv.Read(y)
				if err == nil && !bytes.Equal(got, big('y')) {
					err = errors.New("wrong bytes")
				}
				return err
			})
			if w.srv.CacheStats().Misses != misses+1 || w.set.Writes(1) == writes {
				t.Fatalf("after the read of Y: misses %d -> %d, writes(1) %d -> %d; want a miss, and Y's remainder written",
					misses, w.srv.CacheStats().Misses, writes, w.set.Writes(1))
			}
			within(t, "a delete of X", func() error { return w.srv.Delete(nil, nil, x) })
			if w.set.Writes(1) != writes+3 { // both remainders, then the delete's inode write
				t.Fatalf("after the delete of X: writes(1) %d -> %d, want 3 more", writes, w.set.Writes(1))
			}
			laterX()
			laterY()
			if w.set.Writes(1) != writes+3 || w.srv.CacheStats().PinnedViews != 0 {
				t.Fatalf("the owners' late calls: writes(1) %d -> %d, pins %d; want no more, 0",
					writes+3, w.set.Writes(1), w.srv.CacheStats().PinnedViews)
			}
		})
	}
}

// TestPerFileWaitSleepsWhileDrainWrites: a miss on Y, whose group-commit
// remainder a Drain has already taken and is writing, sleeps until that
// write settles — it neither spins nor reads Y before every replica holds
// it — and the owner's late call is then a no-op.
func TestPerFileWaitSleepsWhileDrainWrites(t *testing.T) {
	var held *heldWrites
	w := newHealWorld(t, 2, func(i int, dev disk.Device) disk.Device {
		if i == 1 {
			held = &heldWrites{Device: dev, entered: make(chan struct{}), release: make(chan struct{})}
			return held
		}
		return dev
	})
	srv := bootWith(t, w, Options{CacheBytes: 16 << 10, GroupCommitWindow: time.Hour, GroupCommitBatch: 1})
	big := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 10<<10) }
	_, laterX, err := srv.CreateDeferred(nil, nil, big('x'), 1)
	if err != nil || laterX == nil {
		t.Fatalf("create X: later nil: %v, err %v", laterX == nil, err)
	}
	held.armed.Store(true)
	go laterX()
	<-held.entered // X stays pinned in the cache, so Y is created uncached
	y, laterY, err := srv.CreateDeferred(nil, nil, big('y'), 1)
	if err != nil || laterY == nil || srv.m.uncachedCreates.Load() != 1 {
		t.Fatalf("create Y: later nil: %v, err %v, uncached creates %d", laterY == nil, err, srv.m.uncachedCreates.Load())
	}
	drained := make(chan struct{})
	go func() { w.set.Drain(); close(drained) }()
	<-held.entered // the Drain is writing Y's remainder
	held.armed.Store(false)

	read := make(chan error, 1)
	go func() {
		got, err := srv.Read(y)
		if err == nil && !bytes.Equal(got, big('y')) {
			err = errors.New("wrong bytes")
		}
		read <- err
	}()
	waitAsleepIn(t, "(*Server).awaitCommit")
	select {
	case err := <-read:
		t.Fatalf("the miss on Y returned (%v) before its remainder landed", err)
	default:
	}
	close(held.release)
	<-drained
	within(t, "the miss on Y", func() error { return <-read })
	writes := w.set.Writes(1)
	laterY()
	if w.set.Writes(1) != writes {
		t.Fatalf("the owner's late call wrote again: writes(1) %d -> %d", writes, w.set.Writes(1))
	}
}

// waitAsleepIn returns once some goroutine is blocked on a channel receive
// inside fn, and fails the test if none is within a bound.
func waitAsleepIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		all := string(buf[:runtime.Stack(buf, true)])
		for _, g := range strings.Split(all, "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine is asleep in %s", fn)
}
