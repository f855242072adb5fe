package disk

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"

	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

func newMem(t *testing.T, blockSize int, blocks int64) *MemDisk {
	t.Helper()
	d, err := NewMem(blockSize, blocks)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	return d
}

func TestMemReadWriteRoundTrip(t *testing.T) {
	d := newMem(t, 512, 16)
	in := []byte("the bullet server stores files contiguously")
	if err := d.WriteAt(in, 1000); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	out := make([]byte, len(in))
	if err := d.ReadAt(out, 1000); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read back %q, want %q", out, in)
	}
}

func TestMemGeometry(t *testing.T) {
	d := newMem(t, 512, 16)
	if d.BlockSize() != 512 || d.Blocks() != 16 {
		t.Fatalf("geometry = %dx%d, want 512x16", d.BlockSize(), d.Blocks())
	}
	if _, err := NewMem(0, 16); err == nil {
		t.Fatal("NewMem(0, 16) succeeded")
	}
	if _, err := NewMem(512, 0); err == nil {
		t.Fatal("NewMem(512, 0) succeeded")
	}
}

func TestMemOutOfRange(t *testing.T) {
	d := newMem(t, 512, 2)
	buf := make([]byte, 512)
	if err := d.ReadAt(buf, 600); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt past end err = %v, want ErrOutOfRange", err)
	}
	if err := d.WriteAt(buf, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("WriteAt(-1) err = %v, want ErrOutOfRange", err)
	}
	// Exactly at the end is fine.
	if err := d.WriteAt(buf, 512); err != nil {
		t.Fatalf("WriteAt(last block): %v", err)
	}
}

func TestMemClosed(t *testing.T) {
	d := newMem(t, 512, 2)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, 1)
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadAt after close err = %v, want ErrClosed", err)
	}
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteAt after close err = %v, want ErrClosed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close err = %v, want ErrClosed", err)
	}
}

func TestMemSnapshotIsCopy(t *testing.T) {
	d := newMem(t, 512, 2)
	if err := d.WriteAt([]byte{1, 2, 3}, 0); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	snap := d.Snapshot()
	snap[0] = 99
	out := make([]byte, 1)
	if err := d.ReadAt(out, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if out[0] != 1 {
		t.Fatal("mutating the snapshot changed the device")
	}
}

func TestFileDiskRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "disk0.img")
	d, err := CreateFile(path, 512, 32)
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	in := []byte("durable bytes")
	if err := d.WriteAt(in, 2048); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := OpenFile(path, 512)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer d2.Close()
	if d2.Blocks() != 32 {
		t.Fatalf("reopened blocks = %d, want 32", d2.Blocks())
	}
	out := make([]byte, len(in))
	if err := d2.ReadAt(out, 2048); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read back %q, want %q", out, in)
	}
}

func TestFileDiskErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFile(filepath.Join(dir, "missing.img"), 512); err == nil {
		t.Fatal("OpenFile(missing) succeeded")
	}
	if _, err := CreateFile(filepath.Join(dir, "bad.img"), 0, 1); err == nil {
		t.Fatal("CreateFile with zero block size succeeded")
	}
	d, err := CreateFile(filepath.Join(dir, "d.img"), 512, 4)
	if err != nil {
		t.Fatalf("CreateFile: %v", err)
	}
	defer d.Close()
	if err := d.ReadAt(make([]byte, 513), 512*3+511); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("ReadAt out of range err = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after close err = %v, want ErrClosed", err)
	}
}

func TestFaultyDiskFault(t *testing.T) {
	d := NewFaulty(newMem(t, 512, 4))
	buf := make([]byte, 16)
	if err := d.WriteAt(buf, 0); err != nil {
		t.Fatalf("healthy write: %v", err)
	}
	d.Fault()
	if !d.Faulted() {
		t.Fatal("Faulted() false after Fault()")
	}
	if err := d.ReadAt(buf, 0); !errors.Is(err, ErrFaulted) {
		t.Fatalf("read on faulted disk err = %v, want ErrFaulted", err)
	}
	if err := d.WriteAt(buf, 0); !errors.Is(err, ErrFaulted) {
		t.Fatalf("write on faulted disk err = %v, want ErrFaulted", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrFaulted) {
		t.Fatalf("sync on faulted disk err = %v, want ErrFaulted", err)
	}
	d.Heal()
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after heal: %v", err)
	}
}

func TestFaultyDiskFailAfterWrites(t *testing.T) {
	d := NewFaulty(newMem(t, 512, 4))
	d.FailAfterWrites(2)
	buf := make([]byte, 8)
	for i := 0; i < 2; i++ {
		if err := d.WriteAt(buf, int64(i*8)); err != nil {
			t.Fatalf("write %d should succeed: %v", i, err)
		}
	}
	if err := d.WriteAt(buf, 16); !errors.Is(err, ErrFaulted) {
		t.Fatalf("third write err = %v, want ErrFaulted", err)
	}
	if !d.Faulted() {
		t.Fatal("disk not faulted after scheduled failure")
	}
}

func TestFaultyDiskTornWrite(t *testing.T) {
	mem := newMem(t, 512, 4)
	d := NewFaulty(mem)
	full := bytes.Repeat([]byte{0xAB}, 64)
	d.TearNextWrite()
	if err := d.WriteAt(full, 0); !errors.Is(err, ErrFaulted) {
		t.Fatalf("torn write err = %v, want ErrFaulted", err)
	}
	out := make([]byte, 64)
	if err := mem.ReadAt(out, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(out[:32], full[:32]) {
		t.Fatal("first half of torn write not persisted")
	}
	if bytes.Equal(out[32:], full[32:]) {
		t.Fatal("second half of torn write persisted; want torn")
	}
}

func newSet(t *testing.T, n int) (*ReplicaSet, []*FaultyDisk) {
	t.Helper()
	devs := make([]Device, n)
	faulty := make([]*FaultyDisk, n)
	for i := range devs {
		faulty[i] = NewFaulty(newMem(t, 512, 64))
		devs[i] = faulty[i]
	}
	s, err := NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	return s, faulty
}

// commit runs ApplyDeferred as a caller whose reply is its return value
// would: the quorum on this goroutine, the remainder on a goroutine of its
// own, which Drain waits for (or takes over, if it gets there first).
func commit(s *ReplicaSet, tc *trace.Ctx, parent *trace.Span, syncN int, op func(int, Device) error, onSettled func()) error {
	later, err := s.ApplyDeferred(tc, parent, syncN, op, onSettled)
	if later != nil {
		go later()
	}
	return err
}

func writeAll(t *testing.T, s *ReplicaSet, p []byte, off int64) {
	t.Helper()
	err := commit(s, nil, nil, s.N(), func(_ int, dev Device) error {
		return dev.WriteAt(p, off)
	}, nil)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestReplicaSetGeometryMismatch(t *testing.T) {
	a := newMem(t, 512, 64)
	b := newMem(t, 1024, 64)
	if _, err := NewReplicaSet(a, b); err == nil {
		t.Fatal("mismatched geometry accepted")
	}
	if _, err := NewReplicaSet(); err == nil {
		t.Fatal("empty replica set accepted")
	}
}

func TestReplicaSetWriteAllReadBack(t *testing.T) {
	s, _ := newSet(t, 2)
	in := []byte("replicated")
	writeAll(t, s, in, 100)
	out := make([]byte, len(in))
	if err := s.ReadAt(out, 100); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read %q, want %q", out, in)
	}
	// Both replicas must hold the data.
	for i := 0; i < s.N(); i++ {
		got := make([]byte, len(in))
		if err := s.Device(i).ReadAt(got, 100); err != nil {
			t.Fatalf("replica %d read: %v", i, err)
		}
		if !bytes.Equal(in, got) {
			t.Fatalf("replica %d holds %q, want %q", i, got, in)
		}
	}
}

func TestReplicaSetFailover(t *testing.T) {
	s, faulty := newSet(t, 2)
	in := []byte("survives failover")
	writeAll(t, s, in, 0)

	faulty[0].Fault()
	out := make([]byte, len(in))
	if err := s.ReadAt(out, 0); err != nil {
		t.Fatalf("ReadAt after main fault: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read %q, want %q", out, in)
	}
	if s.Main() != 1 {
		t.Fatalf("main = %d after failover, want 1", s.Main())
	}
	if s.AliveCount() != 1 {
		t.Fatalf("alive = %d, want 1", s.AliveCount())
	}
	if s.Alive(0) {
		t.Fatal("dead replica still reported alive")
	}
}

func TestReplicaSetAllDead(t *testing.T) {
	s, faulty := newSet(t, 2)
	faulty[0].Fault()
	faulty[1].Fault()
	if err := s.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("ReadAt with all dead err = %v, want ErrNoReplica", err)
	}
	err := commit(s, nil, nil, 1, func(_ int, dev Device) error { return dev.WriteAt([]byte{1}, 0) }, nil)
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("commit with all dead err = %v, want ErrNoReplica", err)
	}
}

func TestReplicaSetOutOfRangeNotFailover(t *testing.T) {
	s, _ := newSet(t, 2)
	err := s.ReadAt(make([]byte, 1), s.Blocks()*int64(s.BlockSize()))
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	if s.AliveCount() != 2 {
		t.Fatal("out-of-range read killed a replica")
	}
}

func TestReplicaSetApplySurvivesOneFailure(t *testing.T) {
	s, faulty := newSet(t, 2)
	faulty[0].FailAfterWrites(0) // next write fails
	in := []byte("written to the survivor")
	writeAll(t, s, in, 0)
	if s.AliveCount() != 1 {
		t.Fatalf("alive = %d, want 1", s.AliveCount())
	}
	out := make([]byte, len(in))
	if err := s.ReadAt(out, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(in, out) {
		t.Fatalf("read %q, want %q", out, in)
	}
}

func TestReplicaSetApplyAsync(t *testing.T) {
	s, _ := newSet(t, 2)
	in := []byte("async write")
	if err := commit(s, nil, nil, 0, func(_ int, dev Device) error { return dev.WriteAt(in, 0) }, nil); err != nil {
		t.Fatalf("commit(0): %v", err)
	}
	s.Drain()
	for i := 0; i < 2; i++ {
		out := make([]byte, len(in))
		if err := s.Device(i).ReadAt(out, 0); err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("replica %d missing async write", i)
		}
	}
}

func TestReplicaSetApplyPartialSync(t *testing.T) {
	s, _ := newSet(t, 3)
	var mu sync.Mutex
	var order []int
	err := commit(s, nil, nil, 2, func(i int, dev Device) error {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return dev.WriteAt([]byte{7}, 0)
	}, nil)
	if err != nil {
		t.Fatalf("commit(2): %v", err)
	}
	mu.Lock()
	sofar := len(order)
	mu.Unlock()
	if sofar < 2 {
		t.Fatalf("only %d replicas written before return, want >= 2", sofar)
	}
	s.Drain()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 {
		t.Fatalf("after drain %d replicas written, want 3", len(order))
	}
}

func TestReplicaSetRecover(t *testing.T) {
	s, faulty := newSet(t, 2)
	in := []byte("before the crash")
	writeAll(t, s, in, 512)

	faulty[1].Fault()
	// More writes happen while replica 1 is down.
	in2 := []byte("written during degraded mode")
	writeAll(t, s, in2, 2048)
	if s.AliveCount() != 1 {
		t.Fatalf("alive = %d, want 1", s.AliveCount())
	}

	faulty[1].Heal()
	if err := s.Recover(1); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if s.AliveCount() != 2 {
		t.Fatalf("alive = %d after recover, want 2", s.AliveCount())
	}
	// Replica 1 must now hold everything, including degraded-mode writes.
	out := make([]byte, len(in2))
	if err := s.Device(1).ReadAt(out, 2048); err != nil {
		t.Fatalf("recovered replica read: %v", err)
	}
	if !bytes.Equal(in2, out) {
		t.Fatalf("recovered replica holds %q, want %q", out, in2)
	}
}

func TestReplicaSetRecoverNoSource(t *testing.T) {
	s, faulty := newSet(t, 2)
	faulty[0].Fault()
	faulty[1].Fault()
	// Force the set to notice both deaths.
	_ = s.ReadAt(make([]byte, 1), 0)
	if err := s.Recover(1); err == nil {
		t.Fatal("Recover with no live source succeeded")
	}
	if err := s.Recover(7); err == nil {
		t.Fatal("Recover(out of range) succeeded")
	}
}

func TestReplicaSetAsDevice(t *testing.T) {
	// ReplicaSet implements Device: WriteAt fans out, Sync survives a
	// single dead replica, Close closes everything.
	s, faulty := newSet(t, 2)
	in := []byte("device-style write")
	if err := s.WriteAt(in, 256); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	for i := 0; i < 2; i++ {
		out := make([]byte, len(in))
		if err := s.Device(i).ReadAt(out, 256); err != nil || !bytes.Equal(in, out) {
			t.Fatalf("replica %d: %q, %v", i, out, err)
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	faulty[0].Fault()
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync with one dead replica: %v", err)
	}
	faulty[1].Fault()
	if err := s.Sync(); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("Sync with all dead err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFaultyDiskClosePassesThrough(t *testing.T) {
	d := NewFaulty(newMem(t, 512, 2))
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close err = %v", err)
	}
}

// Property: data written through a full commit is readable back through
// ReadAt regardless of which single replica subsequently dies.
func TestQuickReplicaDurability(t *testing.T) {
	f := func(data []byte, offBlocks uint8, kill bool, which uint8) bool {
		if len(data) == 0 {
			data = []byte{0}
		}
		if len(data) > 512 {
			data = data[:512]
		}
		mems := []Device{}
		faulty := []*FaultyDisk{}
		for i := 0; i < 2; i++ {
			m, err := NewMem(512, 64)
			if err != nil {
				return false
			}
			fd := NewFaulty(m)
			faulty = append(faulty, fd)
			mems = append(mems, fd)
		}
		s, err := NewReplicaSet(mems...)
		if err != nil {
			return false
		}
		off := int64(offBlocks%32) * 512
		err = commit(s, nil, nil, 2, func(_ int, dev Device) error { return dev.WriteAt(data, off) }, nil)
		if err != nil {
			return false
		}
		if kill {
			faulty[which%2].Fault()
		}
		out := make([]byte, len(data))
		if err := s.ReadAt(out, off); err != nil {
			return false
		}
		return bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSetMetrics(t *testing.T) {
	var devs []Device
	for i := 0; i < 2; i++ {
		mem, err := NewMem(512, 256)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs = append(devs, mem)
	}
	set, err := NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	defer set.Close() //nolint:errcheck // test cleanup
	reg := stats.NewRegistry()
	set.AttachMetrics(reg)

	if err := commit(set, nil, nil, 2, func(_ int, dev Device) error {
		return dev.WriteAt(make([]byte, 512), 0)
	}, nil); err != nil {
		t.Fatalf("commit: %v", err)
	}
	buf := make([]byte, 512)
	if err := set.ReadAt(buf, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}

	snap := reg.Snapshot()
	if n := snap.Gauges["disk.replica0.writes"]; n != 1 {
		t.Errorf("replica0.writes = %d, want 1", n)
	}
	if n := snap.Gauges["disk.replica1.writes"]; n != 1 {
		t.Errorf("replica1.writes = %d, want 1", n)
	}
	if n := snap.Gauges["disk.replica0.reads"]; n != 1 {
		t.Errorf("replica0.reads = %d, want 1", n)
	}
	if n := snap.Gauges["disk.alive_replicas"]; n != 2 {
		t.Errorf("alive_replicas = %d, want 2", n)
	}
	if n := snap.Gauges["disk.replica0.alive"]; n != 1 {
		t.Errorf("replica0.alive = %d, want 1", n)
	}
	if n := snap.Gauges["disk.read_failovers"]; n != 0 {
		t.Errorf("read_failovers = %d, want 0", n)
	}
}
