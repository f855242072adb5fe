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

// TestParallelCommitReturnsAfterSyncQuorum proves the reply waits for the
// quorum only: a commit at syncN 1 returns once the main has the write, while the
// other replica's background write is still parked; Drain then settles
// the laggard.
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
		errc <- commit(set, nil, nil, 1, func(i int, dev Device) error {
			return dev.WriteAt(payload, 0)
		}, nil)
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("commit(1): %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit(1) waited for the hung replica instead of the quorum")
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
