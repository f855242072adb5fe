package bullet

import (
	"bytes"
	"sync"
	"testing"

	"bulletfs/internal/disk"
)

// slotWriteDevice records the buffer of every data write: a write longer
// than one block is a file's, inode blocks are one block each.
type slotWriteDevice struct {
	*disk.MemDisk
	mu     sync.Mutex
	writes [][]byte
}

func (d *slotWriteDevice) WriteAt(p []byte, off int64) error {
	if len(p) > d.BlockSize() {
		d.mu.Lock()
		d.writes = append(d.writes, p)
		d.mu.Unlock()
	}
	return d.MemDisk.WriteAt(p, off)
}

func (d *slotWriteDevice) fileWrites() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([][]byte(nil), d.writes...)
}

func newSlotWriteWorld(t *testing.T) (*Server, []*slotWriteDevice) {
	t.Helper()
	devs := make([]*slotWriteDevice, 2)
	ds := make([]disk.Device, len(devs))
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs[i] = &slotWriteDevice{MemDisk: mem}
		ds[i] = devs[i]
	}
	set, err := disk.NewReplicaSet(ds...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := Format(set, 100); err != nil {
		t.Fatalf("Format: %v", err)
	}
	srv, err := New(set, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Sync)
	return srv, devs
}

// TestCreateWritesEveryReplicaFromItsSlot: a cached create whose size is
// not a block multiple goes to every replica straight from its cache
// slot, block-rounded with a zeroed tail — no padded copy — whether its
// bytes were read into a placement (the RPC path) or copied in by
// CreateDeferred.
func TestCreateWritesEveryReplicaFromItsSlot(t *testing.T) {
	const size = 64<<10 + 100
	const span = (size + 511) / 512 * 512
	data := bytes.Repeat([]byte{0xc7}, size)
	for _, placed := range []bool{true, false} {
		srv, devs := newSlotWriteWorld(t)
		in := data
		if placed {
			p, err := srv.Place(nil, nil, size)
			if err != nil {
				t.Fatalf("Place: %v", err)
			}
			in = p.Bytes()
			copy(in, data)
		}
		c, later, err := srv.CreateDeferred(nil, nil, in, 1)
		if err != nil {
			t.Fatalf("CreateDeferred (placed %v): %v", placed, err)
		}
		later()
		l, err := srv.ReadView(nil, nil, c, 0, -1)
		if err != nil || !l.Pinned() || !bytes.Equal(l.Bytes(), data) {
			t.Fatalf("ReadView (placed %v): %v, pinned %v", placed, err, l != nil && l.Pinned())
		}
		slot := &l.Bytes()[0]
		if placed && slot != &in[0] {
			t.Fatal("the create copied its placement instead of adopting it")
		}
		for i, d := range devs {
			w := d.fileWrites()
			if len(w) != 1 {
				t.Fatalf("replica %d (placed %v): %d file writes, want 1", i, placed, len(w))
			}
			if len(w[0]) != span || &w[0][0] != slot {
				t.Errorf("replica %d (placed %v): %d bytes written from another buffer than the %d-byte slot", i, placed, len(w[0]), span)
			}
			if !bytes.Equal(w[0][size:], make([]byte, span-size)) {
				t.Errorf("replica %d (placed %v): the block-rounded tail was not zeroed", i, placed)
			}
		}
		l.Release()
	}
}

// TestPlacementAdoptOrAbandon: an abandoned placement gives its slot
// back, once; an adopted one is the file, and a later Abandon leaves it.
func TestPlacementAdoptOrAbandon(t *testing.T) {
	w := newWorld(t, 2, Options{})
	p, err := w.srv.Place(nil, nil, 3000)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if st := w.srv.CacheStats(); st.PinnedViews != 1 || st.UsedBytes != 3072 || st.Files != 1 {
		t.Fatalf("cache holding one placement: %+v", st)
	}
	p.Abandon()
	p.Abandon()
	if st := w.srv.CacheStats(); st.PinnedViews != 0 || st.UsedBytes != 0 || st.Files != 0 {
		t.Fatalf("cache after Abandon: %+v", st)
	}

	for _, size := range []int{0, 3000} {
		p, err = w.srv.Place(nil, nil, size)
		if err != nil {
			t.Fatalf("Place(%d): %v", size, err)
		}
		data := bytes.Repeat([]byte{0x3e}, size)
		copy(p.Bytes(), data)
		c, later, err := w.srv.CreateDeferred(nil, nil, p.Bytes(), 2)
		if err != nil {
			t.Fatalf("CreateDeferred(%d placed bytes): %v", size, err)
		}
		if later != nil {
			later()
		}
		p.Abandon() // adopted: nothing to give back
		if got := mustRead(t, w.srv, c); !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes, want %d", len(got), size)
		}
		if st := w.srv.CacheStats(); st.PinnedViews != 0 || st.Files != 1 {
			t.Fatalf("cache after an adopted placement of %d bytes: %+v", size, st)
		}
		if err := w.srv.Delete(nil, nil, c); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if _, err := w.srv.Place(nil, nil, int(w.srv.MaxFileSize())+1); err == nil {
		t.Fatal("Place past the cache size succeeded")
	}
}

// TestModifyGrowsIntoZeros: a derived file is built in a cache slot that
// may hold an earlier file's bytes; the part past the old contents must
// still read as zeros.
func TestModifyGrowsIntoZeros(t *testing.T) {
	w := newWorld(t, 2, Options{})
	junk := mustCreate(t, w.srv, bytes.Repeat([]byte{0xff}, 8192), 2)
	if err := w.srv.Delete(nil, nil, junk); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	c := mustCreate(t, w.srv, []byte("head"), 2)
	nc, err := settle(w.srv.Modify(nil, nil, c, 0, []byte("HE"), 8000, 2))
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	want := append([]byte("HEad"), make([]byte, 8000-4)...)
	if got := mustRead(t, w.srv, nc); !bytes.Equal(got, want) {
		t.Fatal("the grown file is not zero past the old contents")
	}
}
