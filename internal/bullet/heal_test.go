package bullet

import (
	"bytes"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// healWorld is like world but keeps handles to the underlying MemDisks so
// tests can corrupt stored bytes (not just injected reads) and compare
// replica contents after repair.
type healWorld struct {
	srv    *Server
	set    *disk.ReplicaSet
	faulty []*disk.FaultyDisk
	mems   []*disk.MemDisk
	reg    *stats.Registry
	port   capability.Port // reused across reboots so capabilities survive
}

func newHealWorld(t *testing.T, replicas int, wrap func(i int, dev disk.Device) disk.Device) *healWorld {
	t.Helper()
	w := &healWorld{reg: stats.NewRegistry()}
	devs := make([]disk.Device, replicas)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		w.mems = append(w.mems, mem)
		var dev disk.Device = mem
		if wrap != nil {
			dev = wrap(i, dev)
		}
		f := disk.NewFaulty(dev)
		w.faulty = append(w.faulty, f)
		devs[i] = f
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	w.set = set
	if err := Format(set, 200); err != nil {
		t.Fatalf("Format: %v", err)
	}
	port, err := capability.NewPort()
	if err != nil {
		t.Fatalf("NewPort: %v", err)
	}
	w.port = port
	w.srv = w.mustBoot(t)
	return w
}

// mustBoot starts a fresh engine over the world's replica set (a fresh
// engine has a cold cache, so the next read is a disk fault-in).
func (w *healWorld) mustBoot(t *testing.T) *Server {
	t.Helper()
	w.reg = stats.NewRegistry()
	srv, err := New(w.set, Options{Port: w.port, CacheBytes: 1 << 20, Metrics: w.reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w.srv = srv
	return srv
}

// extentOf returns the byte range [off, off+n) of obj's padded extent.
func (w *healWorld) extentOf(t *testing.T, obj uint32) (off, n int64) {
	t.Helper()
	desc, err := layout.ReadDescriptor(w.mems[0])
	if err != nil {
		t.Fatalf("ReadDescriptor: %v", err)
	}
	ino, err := w.srv.table.Get(obj)
	if err != nil {
		t.Fatalf("Get(%d): %v", obj, err)
	}
	return desc.DataOffset(int64(ino.FirstBlock)), ino.Blocks(desc.BlockSize) * int64(desc.BlockSize)
}

// corruptStored flips one byte of obj's extent as stored on replica i,
// bypassing the fault-injection wrapper — persistent silent corruption.
func (w *healWorld) corruptStored(t *testing.T, i int, obj uint32) {
	t.Helper()
	off, n := w.extentOf(t, obj)
	buf := make([]byte, n)
	if err := w.mems[i].ReadAt(buf, off); err != nil {
		t.Fatalf("reading extent on replica %d: %v", i, err)
	}
	buf[len(buf)/3] ^= 0xFF
	if err := w.mems[i].WriteAt(buf, off); err != nil {
		t.Fatalf("corrupting extent on replica %d: %v", i, err)
	}
}

// extentEqual reports whether obj's extent is byte-identical on replicas
// a and b.
func (w *healWorld) extentEqual(t *testing.T, a, b int, obj uint32) bool {
	t.Helper()
	off, n := w.extentOf(t, obj)
	ba, bb := make([]byte, n), make([]byte, n)
	if err := w.mems[a].ReadAt(ba, off); err != nil {
		t.Fatalf("reading replica %d: %v", a, err)
	}
	if err := w.mems[b].ReadAt(bb, off); err != nil {
		t.Fatalf("reading replica %d: %v", b, err)
	}
	return bytes.Equal(ba, bb)
}

// TestVerifiedFaultInHealsCorruptReplica: silently corrupt the main
// replica's stored copy of a file, fault it in through a cold cache, and
// require the read to return the true bytes (served from a sibling), count
// the checksum error, and rewrite the main's extent in place. The sizes
// straddle the vector checksum's 1 KiB threshold, end past its last
// 64-byte block, and reach the 1 MiB of cold_large_read, where the verify
// runs thousands of rounds of the fold loop.
func TestVerifiedFaultInHealsCorruptReplica(t *testing.T) {
	for _, size := range []int{1023, 1024, 1025, 2050, 4096 + 63, 1 << 20} {
		t.Run(strconv.Itoa(size), func(t *testing.T) {
			w := newHealWorld(t, 3, nil)
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(size))).Read(data)
			c := mustCreate(t, w.srv, data, 3)
			w.srv.Sync()

			srv2 := w.mustBoot(t) // cold cache: next read is a disk fault-in
			w.corruptStored(t, 0, c.Object)

			got, err := srv2.Read(c)
			if err != nil {
				t.Fatalf("Read over corrupt main: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("Read returned corrupt data")
			}
			if n := w.set.ChecksumErrors(0); n != 1 {
				t.Fatalf("checksum errors on replica 0 = %d, want 1", n)
			}
			if n := w.set.Repairs(0); n != 1 {
				t.Fatalf("self-heal repairs on replica 0 = %d, want 1", n)
			}
			if !w.set.Alive(0) {
				t.Fatalf("one checksum error quarantined replica 0 (budget should absorb it)")
			}
			if !w.extentEqual(t, 0, 1, c.Object) {
				t.Fatalf("replica 0's extent not rewritten in place")
			}
		})
	}
}

// TestChecksumBackfillAndPersist: wipe the on-disk checksum area (as if
// the entries were never flushed), reboot, and require the first fault-in
// to recompute the checksum lazily; after a Sync the entry must be
// persistent — proven by a third boot that detects corruption with it.
func TestChecksumBackfillAndPersist(t *testing.T) {
	w := newHealWorld(t, 3, nil)
	data := bytes.Repeat([]byte("v1-era file without a recorded checksum "), 40)
	c := mustCreate(t, w.srv, data, 3)
	w.srv.Sync()

	// Wipe the checksum area on every replica.
	desc, err := layout.ReadDescriptor(w.mems[0])
	if err != nil {
		t.Fatalf("ReadDescriptor: %v", err)
	}
	zero := make([]byte, desc.BlockSize)
	for _, mem := range w.mems {
		for b := int64(0); b < desc.SumBlocks(); b++ {
			if err := mem.WriteAt(zero, (desc.SumStart()+b)*int64(desc.BlockSize)); err != nil {
				t.Fatalf("wiping checksum area: %v", err)
			}
		}
	}

	srv2 := w.mustBoot(t)
	if got, err := srv2.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read after checksum wipe: %v", err)
	}
	if n := w.reg.Counter("bullet.checksum_backfills").Load(); n != 1 {
		t.Fatalf("checksum_backfills = %d, want 1", n)
	}
	if w.srv.table.DirtySums() == 0 {
		t.Fatalf("backfilled checksum not marked dirty")
	}
	srv2.Sync()
	if w.srv.table.DirtySums() != 0 {
		t.Fatalf("Sync left dirty checksum blocks")
	}

	// Third boot: the persisted entry must make corruption detectable.
	srv3 := w.mustBoot(t)
	w.corruptStored(t, 0, c.Object)
	before := w.set.ChecksumErrors(0)
	if got, err := srv3.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read over corrupt main after backfill persisted: %v", err)
	}
	if w.set.ChecksumErrors(0) == before {
		t.Fatalf("persisted checksum did not catch corruption on the third boot")
	}
	if n := w.reg.Counter("bullet.checksum_backfills").Load(); n != 0 {
		t.Fatalf("third boot re-backfilled (%d): entry was not persisted", n)
	}
}

// TestScrubObjectRepairsDivergence: scrub detects a silently corrupted
// replica copy and rewrites it from a verifying sibling.
func TestScrubObjectRepairsDivergence(t *testing.T) {
	w := newHealWorld(t, 3, nil)
	data := bytes.Repeat([]byte("scrub me "), 300)
	c := mustCreate(t, w.srv, data, 3)
	w.srv.Sync()
	w.corruptStored(t, 1, c.Object)

	res := w.srv.ScrubObject(c.Object)
	if res.Repaired != 1 || res.Unrepairable || res.Skipped {
		t.Fatalf("ScrubObject = %+v, want exactly one repair", res)
	}
	if !w.extentEqual(t, 0, 1, c.Object) || !w.extentEqual(t, 0, 2, c.Object) {
		t.Fatalf("replicas still diverge after scrub")
	}
	if res := w.srv.ScrubObject(c.Object); res.Repaired != 0 {
		t.Fatalf("second scrub repaired %d extents on a clean file", res.Repaired)
	}
	if res := w.srv.ScrubObject(9999); !res.Skipped {
		t.Fatalf("scrubbing a free inode not skipped: %+v", res)
	}
}

// TestScrubObjectUnrepairable: when every replica's copy fails the
// checksum, scrub must say so rather than crown a corrupt copy.
func TestScrubObjectUnrepairable(t *testing.T) {
	w := newHealWorld(t, 3, nil)
	c := mustCreate(t, w.srv, bytes.Repeat([]byte("doomed "), 200), 3)
	w.srv.Sync()
	for i := range w.mems {
		w.corruptStored(t, i, c.Object)
	}
	res := w.srv.ScrubObject(c.Object)
	if !res.Unrepairable {
		t.Fatalf("ScrubObject = %+v, want Unrepairable", res)
	}
	if n := w.reg.Counter("bullet.scrub_unrepairable").Load(); n != 1 {
		t.Fatalf("scrub_unrepairable = %d, want 1", n)
	}
}

// TestScrubBackfillsByMajority: a file with no recorded checksum gets one
// from the majority copy, and the odd replica out is rewritten.
func TestScrubBackfillsByMajority(t *testing.T) {
	w := newHealWorld(t, 3, nil)
	data := bytes.Repeat([]byte("majority rules "), 100)
	c := mustCreate(t, w.srv, data, 3)
	w.srv.Sync()

	// Wipe the checksum area and reboot so the table has no sum.
	desc, _ := layout.ReadDescriptor(w.mems[0])
	zero := make([]byte, desc.BlockSize)
	for _, mem := range w.mems {
		for b := int64(0); b < desc.SumBlocks(); b++ {
			if err := mem.WriteAt(zero, (desc.SumStart()+b)*int64(desc.BlockSize)); err != nil {
				t.Fatalf("wiping checksum area: %v", err)
			}
		}
	}
	srv2 := w.mustBoot(t)
	w.corruptStored(t, 2, c.Object)

	res := srv2.ScrubObject(c.Object)
	if !res.Backfilled || res.Repaired != 1 || res.Unrepairable {
		t.Fatalf("ScrubObject = %+v, want backfill + one repair", res)
	}
	if got, err := srv2.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read after majority backfill: %v", err)
	}
}

// TestV1UpgradeOnBoot: a pre-checksum (v1) disk loads, upgrades in place,
// and serves checksummed files from then on.
func TestV1UpgradeOnBoot(t *testing.T) {
	devs := make([]disk.Device, 3)
	mems := make([]*disk.MemDisk, 3)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		mems[i] = mem
		devs[i] = mem
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := layout.Format(set, layout.FormatConfig{Inodes: 200, Version: 1}); err != nil {
		t.Fatalf("Format v1: %v", err)
	}
	reg := stats.NewRegistry()
	srv, err := New(set, Options{CacheBytes: 1 << 20, Metrics: reg})
	if err != nil {
		t.Fatalf("New over v1 disk: %v", err)
	}
	if n := reg.Counter("bullet.table_upgrades").Load(); n != 1 {
		t.Fatalf("table_upgrades = %d, want 1", n)
	}
	if v := srv.Health().LayoutVersion; v != 2 {
		t.Fatalf("layout version after boot = %d, want 2", v)
	}
	data := []byte("born on v1, checksummed on v2")
	c, err := srv.Create(data, 3)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	srv.Sync()

	// Second boot: already v2, no second upgrade, checksum loads.
	reg2 := stats.NewRegistry()
	srv2, err := New(set, Options{Port: srv.Port(), CacheBytes: 1 << 20, Metrics: reg2})
	if err != nil {
		t.Fatalf("New after upgrade: %v", err)
	}
	if n := reg2.Counter("bullet.table_upgrades").Load(); n != 0 {
		t.Fatalf("second boot upgraded again (%d times)", n)
	}
	if got, err := srv2.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read after upgrade reboot: %v", err)
	}
	if ino, err := srv2.table.Get(c.Object); err != nil || !ino.HasSum {
		t.Fatalf("checksum not persisted across the upgrade (ino=%+v err=%v)", ino, err)
	}
}

// slowWrites delays every write — it makes a recovery copy take long
// enough that reads and creates demonstrably complete inside the window.
type slowWrites struct {
	disk.Device
	delay time.Duration
}

func (s slowWrites) WriteAt(p []byte, off int64) error {
	time.Sleep(s.delay)
	return s.Device.WriteAt(p, off)
}

// TestEngineRecoverNonBlocking is the acceptance test for online
// recovery: while a ≥64 MB replica is being caught up, a read and a
// create must both complete (asserted via the trace recorder), and the
// replica must converge byte-for-byte afterwards.
func TestEngineRecoverNonBlocking(t *testing.T) {
	const blockSize, blocks = 4096, 16384 // 64 MiB per replica
	devs := make([]disk.Device, 3)
	mems := make([]*disk.MemDisk, 3)
	faulty := make([]*disk.FaultyDisk, 3)
	for i := range devs {
		mem, err := disk.NewMem(blockSize, blocks)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		mems[i] = mem
		var dev disk.Device = mem
		if i == 2 {
			dev = slowWrites{Device: mem, delay: 500 * time.Microsecond}
		}
		faulty[i] = disk.NewFaulty(dev)
		devs[i] = faulty[i]
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := Format(set, 500); err != nil {
		t.Fatalf("Format: %v", err)
	}
	srv, err := New(set, Options{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	pre := mustCreate(t, srv, bytes.Repeat([]byte("survivor "), 500), 2)
	srv.Sync()

	// Kill replica 2 (a write discovers the fault), then revive the
	// hardware and start the online catch-up.
	faulty[2].Fault()
	mustCreate(t, srv, []byte("write that discovers the dead disk"), 2)
	srv.Sync()
	if set.Alive(2) {
		t.Fatalf("replica 2 still alive after faulted write-through")
	}
	faulty[2].Heal()
	if err := srv.StartRecover(2); err != nil {
		t.Fatalf("StartRecover: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for set.Recovering() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("recovery never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Mid-recovery: a read and a create must complete while the copy is
	// still running, recorded as completed spans in the trace recorder.
	rec := trace.NewRecorder()
	defer rec.Close()
	tc := rec.AcquireCtx()
	tc.Reset(rec.NextLocalID())
	l, err := srv.ReadView(tc, nil, pre, 0, -1)
	tc.Finish()
	if err != nil {
		t.Fatalf("read during recovery: %v", err)
	}
	same := bytes.Equal(l.Bytes(), bytes.Repeat([]byte("survivor "), 500))
	l.Release()
	if !same {
		t.Fatal("read during recovery returned wrong bytes")
	}
	tc.Reset(rec.NextLocalID())
	mid, err := settle(srv.CreateDeferred(tc, nil, bytes.Repeat([]byte("mid-recovery create "), 100), 2))
	tc.Finish()
	rec.ReleaseCtx(tc)
	if err != nil {
		t.Fatalf("create during recovery: %v", err)
	}
	if set.Recovering() != 2 {
		t.Fatalf("recovery finished before the concurrent ops ran; widen the window")
	}
	traces := rec.Recent()
	if len(traces) != 2 {
		t.Fatalf("trace recorder holds %d traces, want 2", len(traces))
	}
	for _, tr := range traces {
		root := tr.Root()
		if root == nil || root.Dur == trace.DurPending || root.Status != 0 {
			t.Fatalf("mid-recovery op span incomplete or failed: %+v", root)
		}
	}

	for set.Recovering() != -1 {
		if time.Now().After(deadline) {
			t.Fatalf("recovery never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if set.Recoveries() != 1 {
		t.Fatalf("Recoveries = %d, want 1", set.Recoveries())
	}
	if !set.Alive(2) {
		t.Fatalf("replica 2 not alive after recovery")
	}
	h := srv.Health()
	if h.LastRecover == nil || h.LastRecover.Running || h.LastRecover.Error != "" {
		t.Fatalf("health LastRecover = %+v, want finished cleanly", h.LastRecover)
	}

	// The mid-recovery create must be durable on the recovered replica.
	srv.Sync()
	if got, err := srv.Read(mid); err != nil || !bytes.Equal(got, bytes.Repeat([]byte("mid-recovery create "), 100)) {
		t.Fatalf("mid-recovery file unreadable after recovery: %v", err)
	}
	if !bytes.Equal(mems[0].Snapshot(), mems[2].Snapshot()) {
		t.Fatalf("replica 2 diverges from replica 0 after recovery")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestHealthAndAuthorizeAdmin covers the SALVAGE admission rule: reading
// health needs no admin right, triggering recovery does.
func TestHealthAndAuthorizeAdmin(t *testing.T) {
	w := newHealWorld(t, 3, nil)
	owner := mustCreate(t, w.srv, []byte("admin object"), 1)
	if err := w.srv.AuthorizeAdmin(owner); err != nil {
		t.Fatalf("owner capability refused admin: %v", err)
	}
	readOnly, err := capability.Restrict(owner, capability.RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if err := w.srv.AuthorizeAdmin(readOnly); err == nil {
		t.Fatalf("read-only capability granted admin")
	}
	h := w.srv.Health()
	if h.LiveFiles != 1 || len(h.Replicas) != 3 || h.Recovering != -1 || h.LayoutVersion != 2 {
		t.Fatalf("health report = %+v", h)
	}
	if err := w.srv.StartRecover(7); err == nil {
		t.Fatalf("StartRecover out of range accepted")
	}
}
