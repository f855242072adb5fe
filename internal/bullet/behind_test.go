package bullet

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"bulletfs/internal/disk"
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
