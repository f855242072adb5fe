package disk

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// hungDevice parks every WriteAt until release is closed.
type hungDevice struct {
	Device
	release chan struct{}
}

func (d *hungDevice) WriteAt(p []byte, off int64) error {
	<-d.release
	return d.Device.WriteAt(p, off)
}

// signalDevice closes done after its first successful write.
type signalDevice struct {
	Device
	once sync.Once
	done chan struct{}
}

func (d *signalDevice) WriteAt(p []byte, off int64) error {
	err := d.Device.WriteAt(p, off)
	if err == nil {
		d.once.Do(func() { close(d.done) })
	}
	return err
}

// TestParallelCommitWithHungReplica proves the synchronous phase of Apply
// fans out concurrently: replica 0's write refuses to proceed until
// replica 1's write has completed. Under the old serial loop (replica 0
// first, then replica 1) this dependency deadlocks; with parallel commit
// both writes are in flight at once and the P-FACTOR 2 commit completes.
func TestParallelCommitWithHungReplica(t *testing.T) {
	memA, err := NewMem(512, 64)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	memB, err := NewMem(512, 64)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	done := make(chan struct{})
	a := &hungDevice{Device: memA, release: done}
	b := &signalDevice{Device: memB, done: done}
	set, err := NewReplicaSet(a, b)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}

	payload := []byte("parallel commit payload")
	errc := make(chan error, 1)
	go func() {
		errc <- set.Apply(2, func(i int, dev Device) error {
			return dev.WriteAt(payload, 0)
		})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Apply(2): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("P-FACTOR 2 commit deadlocked: replica writes did not run in parallel")
	}
	set.Drain()

	for i, mem := range []*MemDisk{memA, memB} {
		got := make([]byte, len(payload))
		if err := mem.ReadAt(got, 0); err != nil {
			t.Fatalf("replica %d ReadAt: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("replica %d holds %q, want %q", i, got, payload)
		}
	}
	if set.AliveCount() != 2 {
		t.Fatalf("AliveCount = %d, want 2", set.AliveCount())
	}
}

// TestParallelCommitReturnsAfterSyncQuorum proves the max-of-k latency
// claim: Apply(1) replies as soon as one replica has the write, while the
// other replica's write is still parked; Drain then settles the laggard.
func TestParallelCommitReturnsAfterSyncQuorum(t *testing.T) {
	memA, err := NewMem(512, 64)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	memB, err := NewMem(512, 64)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	release := make(chan struct{})
	b := &hungDevice{Device: memB, release: release}
	set, err := NewReplicaSet(memA, b)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}

	payload := []byte("quorum of one")
	errc := make(chan error, 1)
	go func() {
		errc <- set.Apply(1, func(i int, dev Device) error {
			return dev.WriteAt(payload, 0)
		})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("Apply(1): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Apply(1) waited for the hung replica instead of the quorum")
	}

	// The laggard has not written yet.
	got := make([]byte, len(payload))
	if err := memB.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("hung replica wrote before being released")
	}

	close(release)
	set.Drain()
	if err := memB.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt after drain: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("background write never landed on the slow replica")
	}
	if set.Writes(0) != 1 || set.Writes(1) != 1 {
		t.Fatalf("writes = %d,%d, want 1,1", set.Writes(0), set.Writes(1))
	}
}

// TestConcurrentFileDiskTransfersAgainstClose runs readers and writers on
// one FileDisk (they share its lock: pread/pwrite are position-independent)
// while Close, the lock's only exclusive holder, lands in the middle. Every
// transfer either completes intact or reports ErrClosed; none touches a
// closed descriptor. Meant for -race.
func TestConcurrentFileDiskTransfersAgainstClose(t *testing.T) {
	const bs, blocks, workers = 512, 64, 4
	d, err := CreateFile(filepath.Join(t.TempDir(), "disk.img"), bs, blocks)
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	// Each worker owns one extent and fills it with its own byte, so a read
	// that sees anything else caught a torn or misdirected transfer.
	extent := func(w int) int64 { return int64(w) * 8 * bs }
	for w := 0; w < workers; w++ {
		if err := d.WriteAt(bytes.Repeat([]byte{byte(w + 1)}, 8*bs), extent(w)); err != nil {
			t.Fatalf("seeding extent %d: %v", w, err)
		}
	}

	var wg sync.WaitGroup
	started := make(chan struct{}, 2*workers)
	for w := 0; w < workers; w++ {
		want := bytes.Repeat([]byte{byte(w + 1)}, 8*bs)
		wg.Add(2)
		go func(w int) { // reader
			defer wg.Done()
			buf := make([]byte, len(want))
			for i := 0; ; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				if err := d.ReadAt(buf, extent(w)); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("ReadAt: %v", err)
					}
					return
				}
				if !bytes.Equal(buf, want) {
					t.Errorf("reader %d saw foreign bytes", w)
					return
				}
			}
		}(w)
		go func(w int) { // writer (+ an occasional Sync)
			defer wg.Done()
			for i := 0; ; i++ {
				if i == 1 {
					started <- struct{}{}
				}
				err := d.WriteAt(want, extent(w))
				if err == nil && i%16 == 0 {
					err = d.Sync()
				}
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("WriteAt/Sync: %v", err)
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < 2*workers; i++ {
		<-started // every worker has completed a transfer and is mid-loop
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if err := d.ReadAt(make([]byte, bs), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after Close = %v, want ErrClosed", err)
	}
}
