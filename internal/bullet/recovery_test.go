package bullet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
)

// These tests exercise the §3 reliability story: "The most vulnerable
// component of the server is the disk, but because of its replication,
// the complete file server is highly reliable."

func TestTornInodeWriteSurvivedByReplica(t *testing.T) {
	w := newWorld(t, 2, Options{})
	// A few stable files first.
	var caps []capability.Capability
	var datas [][]byte
	for i := 0; i < 5; i++ {
		d := bytes.Repeat([]byte{byte(i + 1)}, 700)
		caps = append(caps, mustCreate(t, w.srv, d, 2))
		datas = append(datas, d)
	}

	// Disk 0 tears its next write (power loss mid-sector) during the next
	// create. The engine must complete the create on the survivor.
	w.faulty[0].TearNextWrite()
	crashData := []byte("written during the power failure")
	crashCap, err := w.srv.Create(crashData, 2)
	if err != nil {
		t.Fatalf("Create during torn write: %v", err)
	}
	if w.set.AliveCount() != 1 {
		t.Fatalf("alive = %d, want 1", w.set.AliveCount())
	}

	// Restart from the surviving replica only: everything present.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart on survivor: %v", err)
	}
	for i, c := range caps {
		if got := mustRead(t, srv2, c); !bytes.Equal(got, datas[i]) {
			t.Fatalf("file %d corrupted", i)
		}
	}
	if got := mustRead(t, srv2, crashCap); !bytes.Equal(got, crashData) {
		t.Fatalf("crash-time file = %q", got)
	}
}

func TestStartupScanZeroesGarbageInode(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c1 := mustCreate(t, w.srv, []byte("good file"), 2)
	w.srv.Sync()

	// Corrupt one on-disk inode on both replicas: a random-looking record
	// pointing past the data area (simulating a torn multi-sector inode
	// block that left garbage).
	garbage := make([]byte, 16)
	for i := range garbage {
		garbage[i] = 0xEE
	}
	// Inode slot 5 lives in control block 0 at offset 5*16.
	for i := 0; i < 2; i++ {
		if err := w.set.Device(i).WriteAt(garbage, 5*16); err != nil {
			t.Fatalf("corrupting replica %d: %v", i, err)
		}
	}

	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart over garbage inode: %v", err)
	}
	// The good file survives; the garbage inode was zeroed, so creating
	// new files reuses it safely.
	if got := mustRead(t, srv2, c1); !bytes.Equal(got, []byte("good file")) {
		t.Fatal("good file lost to the scan")
	}
	c2 := mustCreate(t, srv2, []byte("new after scan"), 2)
	if got := mustRead(t, srv2, c2); !bytes.Equal(got, []byte("new after scan")) {
		t.Fatal("new file corrupted")
	}
	// The zeroing was persisted: a third restart reports a clean table.
	srv3, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("third restart: %v", err)
	}
	if srv3.Live() != 2 {
		t.Fatalf("Live = %d, want 2", srv3.Live())
	}
}

func TestFullRecoveryCycle(t *testing.T) {
	// The complete §3 story: disk dies -> degraded service -> repair ->
	// whole-disk copy -> the recovered disk can carry the service alone.
	w := newWorld(t, 2, Options{})
	before := mustCreate(t, w.srv, []byte("pre-failure"), 2)

	w.faulty[0].Fault()
	during := mustCreate(t, w.srv, []byte("degraded"), 1)
	// The write-through fans out to both replicas in parallel; a P-FACTOR 1
	// create may return off the healthy disk before the dead one's write
	// fails and demotes it. Settle the fanout before checking.
	w.srv.Sync()
	if w.set.Main() != 1 {
		t.Fatalf("main = %d, want failover to 1", w.set.Main())
	}

	w.faulty[0].Heal()
	if err := w.set.Recover(0); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	after := mustCreate(t, w.srv, []byte("post-recovery"), 2)

	// Kill the disk that carried the degraded period; the recovered one
	// must hold everything.
	w.faulty[1].Fault()
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart on recovered disk: %v", err)
	}
	for _, tc := range []struct {
		cap  capability.Capability
		want string
	}{
		{before, "pre-failure"},
		{during, "degraded"},
		{after, "post-recovery"},
	} {
		if got := mustRead(t, srv2, tc.cap); !bytes.Equal(got, []byte(tc.want)) {
			t.Fatalf("got %q, want %q", got, tc.want)
		}
	}
}

func TestPFactorOneSurvivesImmediateMainLoss(t *testing.T) {
	// PF=1 means "one disk has it". If that disk then dies, the
	// background write to the second disk (already drained) must have
	// preserved the file.
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("one disk is enough"), 1)
	w.srv.Sync() // drain the background write to disk 1
	w.faulty[0].Fault()
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := mustRead(t, srv2, c); !bytes.Equal(got, []byte("one disk is enough")) {
		t.Fatalf("got %q", got)
	}
}

func TestWriteOnSurvivorWhenSecondDiskDiesMidCreate(t *testing.T) {
	w := newWorld(t, 2, Options{})
	// Replica 1 accepts its next 2 writes then dies (i.e., mid-sequence
	// during the 2-write create: data then inode).
	w.faulty[1].FailAfterWrites(1)
	c, err := w.srv.Create(bytes.Repeat([]byte{9}, 900), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// Replica 1 holds the data but not the inode: it must be considered
	// dead, and the engine's file intact on replica 0.
	if w.set.Alive(1) {
		t.Fatal("half-written replica still alive")
	}
	if got := mustRead(t, w.srv, c); !bytes.Equal(got, bytes.Repeat([]byte{9}, 900)) {
		t.Fatal("file corrupted")
	}
	// Restart from replica 0 alone.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if srv2.Live() != 1 {
		t.Fatalf("Live = %d, want 1", srv2.Live())
	}
}

// TestCommitWithNoLiveReplicaLeaksNothing: when no disk takes the write the
// create fails with full rollback — inode, extent, cache slot and the
// commit's pin on that slot. The first create meets live replicas that all
// reject the write (the all-fail path); the later ones meet a set with no
// live replica at all, the path that used to return before running the
// settle hook and so leaked one pinned, doomed slot per attempt. Grouped
// commits settle through the same hook.
func TestCommitWithNoLiveReplicaLeaksNothing(t *testing.T) {
	for name, opts := range map[string]Options{
		"direct":  {},
		"grouped": {GroupCommitWindow: time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			w := newWorld(t, 2, opts)
			mustCreate(t, w.srv, []byte("a survivor from before the outage"), 2)
			cacheBefore, diskBefore, live := w.srv.CacheStats(), w.srv.DiskStats(), w.srv.Live()
			for _, f := range w.faulty {
				f.FailAfterWrites(0)
			}
			for i := 0; i < 5; i++ {
				if _, err := w.srv.Create(bytes.Repeat([]byte{7}, 3000), 1); !errors.Is(err, disk.ErrNoReplica) {
					t.Fatalf("create %d with every disk failing: %v, want ErrNoReplica", i, err)
				}
				w.set.Drain()
				cs := w.srv.CacheStats()
				if cs.PinnedViews != 0 || cs.UsedBytes != cacheBefore.UsedBytes || cs.Files != cacheBefore.Files {
					t.Fatalf("after failed create %d: pinned=%d used=%d files=%d, want 0, %d, %d",
						i, cs.PinnedViews, cs.UsedBytes, cs.Files, cacheBefore.UsedBytes, cacheBefore.Files)
				}
			}
			if w.set.AliveCount() != 0 {
				t.Fatalf("alive = %d, want 0", w.set.AliveCount())
			}
			if got := w.srv.DiskStats(); got != diskBefore {
				t.Fatalf("allocator after failed creates: %+v, want %+v", got, diskBefore)
			}
			if w.srv.Live() != live {
				t.Fatalf("Live = %d after failed creates, want %d", w.srv.Live(), live)
			}
		})
	}
}
