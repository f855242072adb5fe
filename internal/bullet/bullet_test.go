package bullet

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"

	"bulletfs/internal/stats"
)

// world bundles a test server with handles to its fault-injectable disks.
type world struct {
	srv    *Server
	set    *disk.ReplicaSet
	faulty []*disk.FaultyDisk
}

func newWorld(t *testing.T, replicas int, opts Options) *world {
	t.Helper()
	devs := make([]disk.Device, replicas)
	faulty := make([]*disk.FaultyDisk, replicas)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096) // 2 MiB per disk
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		faulty[i] = disk.NewFaulty(mem)
		devs[i] = faulty[i]
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := Format(set, 500); err != nil {
		t.Fatalf("Format: %v", err)
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 1 << 20
	}
	srv, err := New(set, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Sync() })
	return &world{srv: srv, set: set, faulty: faulty}
}

func mustCreate(t *testing.T, s *Server, data []byte, pf int) capability.Capability {
	t.Helper()
	c, err := s.Create(data, pf)
	if err != nil {
		t.Fatalf("Create(%d bytes, pf=%d): %v", len(data), pf, err)
	}
	return c
}

func mustRead(t *testing.T, s *Server, c capability.Capability) []byte {
	t.Helper()
	data, err := s.Read(c)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return data
}

// settle runs the write-through a deferred operation returned (Modify,
// Append, CreateDeferred) on the calling goroutine, as a server does
// after its reply.
func settle(c capability.Capability, later func(), err error) (capability.Capability, error) {
	if later != nil {
		later()
	}
	return c, err
}

// readRange is the copying ranged read: ReadView, a copy, Release.
func readRange(s *Server, c capability.Capability, offset, n int64) ([]byte, error) {
	l, err := s.ReadView(nil, nil, c, offset, n)
	if err != nil {
		return nil, err
	}
	defer l.Release()
	return append([]byte(nil), l.Bytes()...), nil
}

func TestCreateReadRoundTrip(t *testing.T) {
	w := newWorld(t, 2, Options{})
	data := []byte("files are stored contiguously, both on disk and in RAM")
	c := mustCreate(t, w.srv, data, 2)
	if got := mustRead(t, w.srv, c); !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, want %q", got, data)
	}
	size, err := w.srv.Size(nil, nil, c)
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if size != int64(len(data)) {
		t.Fatalf("Size = %d, want %d", size, len(data))
	}
}

func TestCreateReturnsOwnerCapability(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("x"), 1)
	if c.Rights != capability.RightsAll {
		t.Fatalf("rights = %08b, want owner", c.Rights)
	}
	if c.Port != w.srv.Port() {
		t.Fatal("capability names the wrong port")
	}
}

func TestEmptyFile(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, nil, 2)
	if got := mustRead(t, w.srv, c); len(got) != 0 {
		t.Fatalf("Read(empty) = %q", got)
	}
	size, err := w.srv.Size(nil, nil, c)
	if err != nil || size != 0 {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

func TestReadIsACopy(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("immutable"), 2)
	got := mustRead(t, w.srv, c)
	got[0] = 'X'
	if again := mustRead(t, w.srv, c); !bytes.Equal(again, []byte("immutable")) {
		t.Fatal("mutating a read result corrupted the stored file")
	}
}

func TestDeleteRemovesFile(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("short-lived"), 2)
	if err := w.srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := w.srv.Read(c); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Read after delete err = %v, want ErrNoSuchFile", err)
	}
	if _, err := w.srv.Size(nil, nil, c); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Size after delete err = %v", err)
	}
	if err := w.srv.Delete(nil, nil, c); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("double Delete err = %v", err)
	}
	if w.srv.Live() != 0 {
		t.Fatalf("Live = %d, want 0", w.srv.Live())
	}
}

func TestDeleteFreesDiskSpace(t *testing.T) {
	w := newWorld(t, 2, Options{})
	before := w.srv.DiskStats()
	c := mustCreate(t, w.srv, make([]byte, 10*512), 2)
	mid := w.srv.DiskStats()
	if mid.Used != before.Used+10 {
		t.Fatalf("Used = %d blocks, want %d", mid.Used, before.Used+10)
	}
	if err := w.srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	after := w.srv.DiskStats()
	if after.Used != before.Used {
		t.Fatalf("Used = %d after delete, want %d", after.Used, before.Used)
	}
}

func TestRightsEnforcement(t *testing.T) {
	w := newWorld(t, 2, Options{})
	owner := mustCreate(t, w.srv, []byte("guarded"), 2)

	readOnly, err := capability.Restrict(owner, RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if _, err := w.srv.Read(readOnly); err != nil {
		t.Fatalf("Read with read-only cap: %v", err)
	}
	if err := w.srv.Delete(nil, nil, readOnly); !errors.Is(err, capability.ErrBadRights) {
		t.Fatalf("Delete with read-only cap err = %v, want ErrBadRights", err)
	}

	deleteOnly, err := capability.Restrict(owner, RightDelete)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if _, err := w.srv.Read(deleteOnly); !errors.Is(err, capability.ErrBadRights) {
		t.Fatalf("Read with delete-only cap err = %v, want ErrBadRights", err)
	}
	if err := w.srv.Delete(nil, nil, deleteOnly); err != nil {
		t.Fatalf("Delete with delete-only cap: %v", err)
	}
}

func TestForgedCapabilityRejected(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("secret"), 2)
	forged := c
	forged.Check[0] ^= 0xFF
	if _, err := w.srv.Read(forged); !errors.Is(err, capability.ErrBadCheck) {
		t.Fatalf("Read with forged check err = %v, want ErrBadCheck", err)
	}
	wrongPort := c
	wrongPort.Port[0] ^= 0xFF
	if _, err := w.srv.Read(wrongPort); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Read with wrong port err = %v, want ErrNoSuchFile", err)
	}
	badObject := c
	badObject.Object = 12345
	if _, err := w.srv.Read(badObject); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Read of unknown object err = %v, want ErrNoSuchFile", err)
	}
}

func TestPFactorValidation(t *testing.T) {
	w := newWorld(t, 2, Options{})
	if _, err := w.srv.Create([]byte("x"), 3); !errors.Is(err, ErrBadPFactor) {
		t.Fatalf("pf=3 with 2 disks err = %v, want ErrBadPFactor", err)
	}
	if _, err := w.srv.Create([]byte("x"), -1); !errors.Is(err, ErrBadPFactor) {
		t.Fatalf("pf=-1 err = %v, want ErrBadPFactor", err)
	}
}

func TestPFactorZeroEventuallyDurable(t *testing.T) {
	w := newWorld(t, 2, Options{})
	data := []byte("async but still written through")
	c := mustCreate(t, w.srv, data, 0)
	w.srv.Sync() // wait for background write-through
	// Both replicas must hold the inode and the data: restart from disks.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := mustRead(t, srv2, c); !bytes.Equal(got, data) {
		t.Fatalf("after restart Read = %q, want %q", got, data)
	}
}

func TestCacheHitVsMiss(t *testing.T) {
	w := newWorld(t, 2, Options{})
	data := []byte("cached after create")
	c := mustCreate(t, w.srv, data, 2)
	mustRead(t, w.srv, c) // created files are cached: hit
	st := w.srv.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 0 misses", st)
	}

	// A fresh server over the same disks has a cold cache.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := mustRead(t, srv2, c); !bytes.Equal(got, data) {
		t.Fatalf("cold read = %q", got)
	}
	st2 := srv2.Stats()
	if st2.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 miss", st2)
	}
	// Second read hits.
	mustRead(t, srv2, c)
	st2 = srv2.Stats()
	if st2.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 1 hit", st2)
	}
}

func TestRestartAfterCrashRecoversAllFiles(t *testing.T) {
	w := newWorld(t, 2, Options{})
	type f struct {
		cap  capability.Capability
		data []byte
	}
	var files []f
	for i := 0; i < 20; i++ {
		data := bytes.Repeat([]byte{byte(i + 1)}, (i*97)%2000+1)
		files = append(files, f{cap: mustCreate(t, w.srv, data, 2), data: data})
	}
	// Delete a few.
	for i := 0; i < 20; i += 4 {
		if err := w.srv.Delete(nil, nil, files[i].cap); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	// "Crash": no shutdown; just bring up a new server on the same disks.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i, file := range files {
		if i%4 == 0 {
			if _, err := srv2.Read(file.cap); !errors.Is(err, ErrNoSuchFile) {
				t.Fatalf("deleted file %d resurrected: %v", i, err)
			}
			continue
		}
		if got := mustRead(t, srv2, file.cap); !bytes.Equal(got, file.data) {
			t.Fatalf("file %d corrupted after restart", i)
		}
	}
	if srv2.Live() != 15 {
		t.Fatalf("Live = %d, want 15", srv2.Live())
	}
}

func TestMainDiskFailureTransparent(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 4096}) // tiny cache forces disk reads
	data := bytes.Repeat([]byte{7}, 3000)
	c := mustCreate(t, w.srv, data, 2)
	// Push the file out of cache.
	c2 := mustCreate(t, w.srv, bytes.Repeat([]byte{8}, 4000), 2)
	_ = c2

	w.faulty[0].Fault()
	if got := mustRead(t, w.srv, c); !bytes.Equal(got, data) {
		t.Fatal("read after main-disk failure returned wrong data")
	}
	// Writes keep working on the survivor.
	c3 := mustCreate(t, w.srv, []byte("degraded mode"), 1)
	if got := mustRead(t, w.srv, c3); !bytes.Equal(got, []byte("degraded mode")) {
		t.Fatal("create in degraded mode failed")
	}
}

func TestDiskRecoveryAfterRepair(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c1 := mustCreate(t, w.srv, []byte("before failure"), 2)
	w.faulty[1].Fault()
	c2 := mustCreate(t, w.srv, []byte("during degraded mode"), 1)

	w.faulty[1].Heal()
	if err := w.set.Recover(1); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// Kill the main; everything must now be served from the recovered disk.
	w.faulty[0].Fault()
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart on recovered disk: %v", err)
	}
	if got := mustRead(t, srv2, c1); !bytes.Equal(got, []byte("before failure")) {
		t.Fatal("pre-failure file lost")
	}
	if got := mustRead(t, srv2, c2); !bytes.Equal(got, []byte("during degraded mode")) {
		t.Fatal("degraded-mode file missing from recovered disk")
	}
}

func TestCreateFailsWhenAllDisksDead(t *testing.T) {
	w := newWorld(t, 2, Options{})
	w.faulty[0].Fault()
	w.faulty[1].Fault()
	if _, err := w.srv.Create([]byte("doomed"), 1); err == nil {
		t.Fatal("Create with all disks dead succeeded")
	}
	if w.srv.Live() != 0 {
		t.Fatalf("failed create leaked an inode: Live = %d", w.srv.Live())
	}
	st := w.srv.DiskStats()
	if st.Used != 0 {
		t.Fatalf("failed create leaked disk space: %+v", st)
	}
}

func TestTooLargeRejected(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 8192})
	if _, err := w.srv.Create(make([]byte, 8193), 2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestDiskFull(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 4 << 20})
	// Data area is ~4096-? blocks of 512 B = ~2 MiB. Fill it up.
	var caps []capability.Capability
	for {
		c, err := w.srv.Create(make([]byte, 64*1024), 2)
		if errors.Is(err, ErrDiskFull) {
			break
		}
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		caps = append(caps, c)
		if len(caps) > 100 {
			t.Fatal("disk never filled")
		}
	}
	// Delete one file; the same size must fit again.
	if err := w.srv.Delete(nil, nil, caps[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := w.srv.Create(make([]byte, 64*1024), 2); err != nil {
		t.Fatalf("Create after delete: %v", err)
	}
}

func TestAutoCompactionDefeatsFragmentation(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 4 << 20})
	// Fill the disk with 64 KiB files, delete every other one: free space
	// is ~half the disk but shattered into 64 KiB holes.
	var caps []capability.Capability
	for {
		c, err := w.srv.Create(make([]byte, 64*1024), 2)
		if errors.Is(err, ErrDiskFull) {
			break
		}
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		caps = append(caps, c)
	}
	for i := 0; i < len(caps); i += 2 {
		if err := w.srv.Delete(nil, nil, caps[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	free := w.srv.DiskStats().Free * 512
	big := int(free - free/8) // clearly larger than any single hole
	if big <= 64*1024 {
		t.Skipf("free space too small for a meaningful test: %d", free)
	}
	c, err := w.srv.Create(make([]byte, big), 2)
	if err != nil {
		t.Fatalf("Create(big) should trigger compaction: %v", err)
	}
	if w.srv.Stats().Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	// Every surviving file still reads correctly after the great slide.
	for i := 1; i < len(caps); i += 2 {
		if _, err := w.srv.Read(caps[i]); err != nil {
			t.Fatalf("file %d unreadable after compaction: %v", i, err)
		}
	}
	if _, err := w.srv.Read(c); err != nil {
		t.Fatalf("big file unreadable: %v", err)
	}
}

func TestExplicitCompactDisk(t *testing.T) {
	w := newWorld(t, 2, Options{})
	var caps []capability.Capability
	var datas [][]byte
	for i := 0; i < 10; i++ {
		d := bytes.Repeat([]byte{byte(i + 1)}, 600+i*13)
		caps = append(caps, mustCreate(t, w.srv, d, 2))
		datas = append(datas, d)
	}
	for i := 0; i < 10; i += 2 {
		if err := w.srv.Delete(nil, nil, caps[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if err := w.srv.CompactDisk(); err != nil {
		t.Fatalf("CompactDisk: %v", err)
	}
	st := w.srv.DiskStats()
	if st.FreeExtents != 1 {
		t.Fatalf("free extents = %d after compaction, want 1", st.FreeExtents)
	}
	for i := 1; i < 10; i += 2 {
		if got := mustRead(t, w.srv, caps[i]); !bytes.Equal(got, datas[i]) {
			t.Fatalf("file %d corrupted by compaction", i)
		}
	}
	// The moved files must be intact on disk, not only in cache: restart.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	for i := 1; i < 10; i += 2 {
		if got := mustRead(t, srv2, caps[i]); !bytes.Equal(got, datas[i]) {
			t.Fatalf("file %d corrupted on disk by compaction", i)
		}
	}
}

func TestModifyCreatesNewVersion(t *testing.T) {
	w := newWorld(t, 2, Options{})
	v1 := mustCreate(t, w.srv, []byte("hello horrid world"), 2)
	v2, err := settle(w.srv.Modify(nil, nil, v1, 6, []byte("bullet"), -1, 2))
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	if got := mustRead(t, w.srv, v2); !bytes.Equal(got, []byte("hello bullet world")) {
		t.Fatalf("v2 = %q", got)
	}
	// The original is untouched (immutability).
	if got := mustRead(t, w.srv, v1); !bytes.Equal(got, []byte("hello horrid world")) {
		t.Fatalf("v1 mutated: %q", got)
	}
	if v1.Object == v2.Object {
		t.Fatal("modify reused the object number")
	}
}

func TestModifyGrowAndShrink(t *testing.T) {
	w := newWorld(t, 2, Options{})
	v1 := mustCreate(t, w.srv, []byte("abcdef"), 2)

	grown, err := settle(w.srv.Modify(nil, nil, v1, 8, []byte("XY"), 10, 2))
	if err != nil {
		t.Fatalf("Modify(grow): %v", err)
	}
	want := []byte("abcdef\x00\x00XY")
	if got := mustRead(t, w.srv, grown); !bytes.Equal(got, want) {
		t.Fatalf("grown = %q, want %q", got, want)
	}

	shrunk, err := settle(w.srv.Modify(nil, nil, v1, 0, nil, 3, 2))
	if err != nil {
		t.Fatalf("Modify(shrink): %v", err)
	}
	if got := mustRead(t, w.srv, shrunk); !bytes.Equal(got, []byte("abc")) {
		t.Fatalf("shrunk = %q", got)
	}
}

func TestModifyValidation(t *testing.T) {
	w := newWorld(t, 2, Options{})
	v1 := mustCreate(t, w.srv, []byte("abc"), 2)
	if _, err := settle(w.srv.Modify(nil, nil, v1, -1, []byte("x"), -1, 2)); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative offset err = %v", err)
	}
	if _, err := settle(w.srv.Modify(nil, nil, v1, 5, []byte("xyz"), 6, 2)); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("splice past size err = %v", err)
	}
	readOnly, err := capability.Restrict(v1, RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if _, err := settle(w.srv.Modify(nil, nil, readOnly, 0, []byte("x"), -1, 2)); !errors.Is(err, capability.ErrBadRights) {
		t.Fatalf("modify without right err = %v", err)
	}
}

func TestAppend(t *testing.T) {
	w := newWorld(t, 2, Options{})
	v1 := mustCreate(t, w.srv, []byte("log line 1\n"), 2)
	v2, err := settle(w.srv.Append(nil, nil, v1, []byte("log line 2\n"), 2))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := mustRead(t, w.srv, v2); !bytes.Equal(got, []byte("log line 1\nlog line 2\n")) {
		t.Fatalf("appended = %q", got)
	}
}

func TestReadRange(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("0123456789"), 2)
	cases := []struct {
		off, n int64
		want   string
	}{
		{0, 4, "0123"},
		{5, 3, "567"},
		{8, 100, "89"}, // clipped at EOF
		{10, 5, ""},    // read at EOF
	}
	for _, cse := range cases {
		got, err := readRange(w.srv, c, cse.off, cse.n)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", cse.off, cse.n, err)
		}
		if string(got) != cse.want {
			t.Fatalf("ReadRange(%d,%d) = %q, want %q", cse.off, cse.n, got, cse.want)
		}
	}
	if _, err := readRange(w.srv, c, 11, 1); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("past-EOF offset err = %v", err)
	}
	if _, err := readRange(w.srv, c, -1, 1); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative offset err = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, make([]byte, 100), 2)
	mustRead(t, w.srv, c)
	mustRead(t, w.srv, c)
	if err := w.srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	st := w.srv.Stats()
	if st.Creates != 1 || st.Reads != 2 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesIn != 100 || st.BytesOut != 200 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManySmallFiles(t *testing.T) {
	w := newWorld(t, 2, Options{})
	caps := make(map[int]capability.Capability)
	for i := 0; i < 300; i++ {
		caps[i] = mustCreate(t, w.srv, []byte{byte(i), byte(i >> 8)}, 2)
	}
	for i, c := range caps {
		got := mustRead(t, w.srv, c)
		if !bytes.Equal(got, []byte{byte(i), byte(i >> 8)}) {
			t.Fatalf("file %d corrupted", i)
		}
	}
	if w.srv.Live() != 300 {
		t.Fatalf("Live = %d, want 300", w.srv.Live())
	}
}

func TestConcurrentOperations(t *testing.T) {
	w := newWorld(t, 2, Options{})
	const workers = 8
	done := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(id int) {
			for i := 0; i < 30; i++ {
				data := bytes.Repeat([]byte{byte(id)}, (id+1)*50)
				c, err := w.srv.Create(data, 2)
				if err != nil {
					done <- err
					return
				}
				got, err := w.srv.Read(c)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, data) {
					done <- errors.New("read returned wrong data")
					return
				}
				if err := w.srv.Delete(nil, nil, c); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if w.srv.Live() != 0 {
		t.Fatalf("Live = %d after balanced create/delete, want 0", w.srv.Live())
	}
}

// Property: any create/read/delete interleaving keeps every live file
// intact, byte for byte, with or without restarts.
func TestQuickEngineIntegrity(t *testing.T) {
	type op struct {
		Kind    uint8 // 0 create, 1 delete, 2 read, 3 restart
		Size    uint16
		Victim  uint8
		PFactor uint8
	}
	f := func(ops []op) bool {
		devs := make([]disk.Device, 2)
		for i := range devs {
			mem, err := disk.NewMem(512, 2048)
			if err != nil {
				return false
			}
			devs[i] = mem
		}
		set, err := disk.NewReplicaSet(devs...)
		if err != nil {
			return false
		}
		if err := Format(set, 200); err != nil {
			return false
		}
		port := capability.PortFromString("quick")
		srv, err := New(set, Options{Port: port, CacheBytes: 1 << 18})
		if err != nil {
			return false
		}
		type file struct {
			cap  capability.Capability
			data []byte
		}
		var live []file
		seq := 0
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				size := int(o.Size) % 3000
				data := bytes.Repeat([]byte{byte(seq + 1)}, size)
				seq++
				c, err := srv.Create(data, int(o.PFactor)%3)
				if errors.Is(err, ErrDiskFull) || errors.Is(err, ErrTooLarge) {
					continue
				}
				if err != nil {
					return false
				}
				live = append(live, file{cap: c, data: data})
			case 1:
				if len(live) == 0 {
					continue
				}
				i := int(o.Victim) % len(live)
				if err := srv.Delete(nil, nil, live[i].cap); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			case 2:
				if len(live) == 0 {
					continue
				}
				i := int(o.Victim) % len(live)
				got, err := srv.Read(live[i].cap)
				if err != nil || !bytes.Equal(got, live[i].data) {
					return false
				}
			case 3:
				srv.Sync()
				srv, err = New(set, Options{Port: port, CacheBytes: 1 << 18})
				if err != nil {
					return false
				}
			}
		}
		srv.Sync()
		for _, f := range live {
			got, err := srv.Read(f.cap)
			if err != nil || !bytes.Equal(got, f.data) {
				return false
			}
		}
		return srv.Live() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsRegistryAndStatsSnapshot(t *testing.T) {
	w := newWorld(t, 2, Options{})
	reg := w.srv.Metrics()
	if reg == nil {
		t.Fatal("Metrics() returned nil")
	}

	c, err := w.srv.Create([]byte("measured"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := w.srv.Read(c); err != nil {
		t.Fatalf("Read: %v", err)
	}

	snap, err := w.srv.StatsSnapshot(c)
	if err != nil {
		t.Fatalf("StatsSnapshot: %v", err)
	}
	if n := snap.Counters["bullet.creates"]; n != 1 {
		t.Errorf("bullet.creates = %d, want 1", n)
	}
	if n := snap.Counters["bullet.reads"]; n != 1 {
		t.Errorf("bullet.reads = %d, want 1", n)
	}
	if n := snap.Gauges["bullet.live_files"]; n != 1 {
		t.Errorf("bullet.live_files = %d, want 1", n)
	}
	if h, ok := snap.Histograms["bullet.commit_ns.p2"]; !ok || h.Count != 1 {
		t.Errorf("bullet.commit_ns.p2 = %+v, want count 1", h)
	}

	// The legacy Stats view is synthesized from the same registry.
	legacy := w.srv.Stats()
	if legacy.Creates != 1 || legacy.Reads != 1 || legacy.BytesIn != 8 {
		t.Errorf("legacy Stats = %+v, want Creates 1 Reads 1 BytesIn 8", legacy)
	}

	// StatsSnapshot is capability-checked: no read right, no stats.
	delOnly, err := capability.Restrict(c, capability.RightDelete)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if _, err := w.srv.StatsSnapshot(delOnly); !errors.Is(err, capability.ErrBadRights) {
		t.Errorf("StatsSnapshot without read right: err = %v, want ErrBadRights", err)
	}
}

func TestSharedRegistryOption(t *testing.T) {
	reg := stats.NewRegistry()
	w := newWorld(t, 2, Options{Metrics: reg})
	if w.srv.Metrics() != reg {
		t.Fatal("engine did not adopt the supplied registry")
	}
	if _, err := w.srv.Create([]byte("x"), 1); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if n := reg.Snapshot().Counters["bullet.creates"]; n != 1 {
		t.Errorf("shared registry bullet.creates = %d, want 1", n)
	}
}

func TestCompactionMetrics(t *testing.T) {
	w := newWorld(t, 2, Options{})
	// Lay down files, delete one to punch a hole, compact.
	var caps []capability.Capability
	for i := 0; i < 3; i++ {
		c, err := w.srv.Create(bytes.Repeat([]byte{byte(i)}, 2048), 2)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		caps = append(caps, c)
	}
	if err := w.srv.Delete(nil, nil, caps[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := w.srv.CompactDisk(); err != nil {
		t.Fatalf("CompactDisk: %v", err)
	}
	snap := w.srv.Metrics().Snapshot()
	if n := snap.Counters["bullet.disk_compactions"]; n != 1 {
		t.Errorf("bullet.disk_compactions = %d, want 1", n)
	}
	if n := snap.Counters["bullet.compaction_bytes_moved"]; n <= 0 {
		t.Errorf("bullet.compaction_bytes_moved = %d, want > 0", n)
	}
}
