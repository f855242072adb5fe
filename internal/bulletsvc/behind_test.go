package bulletsvc

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
)

// heldDevice parks every WriteAt while armed, and — while watched — counts
// the writes that arrive on any goroutine other than a TCP connection's
// serving one.
type heldDevice struct {
	*disk.MemDisk
	armed    atomic.Bool
	entered  chan struct{} // signalled when a write parks
	release  chan struct{} // closed to let parked writes proceed
	once     sync.Once
	watched  atomic.Bool
	offServe atomic.Int32
}

func (d *heldDevice) WriteAt(p []byte, off int64) error {
	if d.watched.Load() && !onStack("(*TCPServer).serveConn") {
		d.offServe.Add(1)
	}
	if d.armed.Load() {
		select {
		case d.entered <- struct{}{}:
		default:
		}
		<-d.release
	}
	return d.MemDisk.WriteAt(p, off)
}

func (d *heldDevice) letGo() {
	d.armed.Store(false)
	d.once.Do(func() { close(d.release) })
}

func onStack(suffix string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, suffix) {
			return true
		}
		if !more {
			return false
		}
	}
}

// behindWorld is a two-replica engine behind a real TCP server.
type behindWorld struct {
	devs [2]*heldDevice
	set  *disk.ReplicaSet
	eng  *bullet.Server
	mux  *rpc.Mux
	port capability.Port
	addr string
}

func newBehindWorld(t *testing.T, cacheBytes int64) *behindWorld {
	t.Helper()
	w := &behindWorld{}
	for i := range w.devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		w.devs[i] = &heldDevice{MemDisk: mem, entered: make(chan struct{}, 1), release: make(chan struct{})}
	}
	var err error
	if w.set, err = disk.NewReplicaSet(w.devs[0], w.devs[1]); err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(w.set, 200); err != nil {
		t.Fatalf("Format: %v", err)
	}
	if w.eng, err = bullet.New(w.set, bullet.Options{CacheBytes: cacheBytes}); err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(w.eng.Sync)
	w.port = w.eng.Port()
	w.mux = rpc.NewMux(0)
	New(w.eng).Register(w.mux)
	srv := rpc.NewTCPServer(w.mux)
	if w.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	// Runs first: a failed test must not leave Close and Sync waiting on a
	// held device.
	t.Cleanup(func() { w.devs[0].letGo(); w.devs[1].letGo() })
	return w
}

// dial returns a transport with a connection of its own.
func (w *behindWorld) dial(t *testing.T) *rpc.TCPTransport {
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{w.port: w.addr}), 10*time.Second)
	t.Cleanup(func() { tr.Close() })
	return tr
}

func (w *behindWorld) pendingWrites() int64 {
	return w.eng.Metrics().Snapshot().Gauges["disk.pending_writes"]
}

// replicasIdentical reports whether the two disks hold the same bytes.
func (w *behindWorld) replicasIdentical() bool {
	return bytes.Equal(w.devs[0].Snapshot(), w.devs[1].Snapshot())
}

// TestWriteBehindReplyLeavesBeforeHeldReplica is the tentpole over a real
// TCP server: the reply to every command that writes a file — CREATE,
// CREATE-COMMIT, MODIFY and APPEND, at P-FACTOR 0 and 1 — is in the
// client's hands while the replica the reply did not wait for is still
// held inside its write; that write, like every other of the request, is
// made by the connection's serving goroutine; and the next request on the
// connection finds the file on every replica without anyone having called
// Drain.
func TestWriteBehindReplyLeavesBeforeHeldReplica(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cmd     uint32
		pfactor uint64
	}{
		{"pfactor0", CmdCreate, 0},
		{"pfactor1", CmdCreate, 1},
		{"modify-pfactor0", CmdModify, 0},
		{"modify-pfactor1", CmdModify, 1},
		{"append-pfactor0", CmdAppend, 0},
		{"append-pfactor1", CmdAppend, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newBehindWorld(t, 1<<20)
			tr := w.dial(t)
			data := bytes.Repeat([]byte("write-behind "), 300)
			req := rpc.Header{Command: CmdCreate, Arg: tc.pfactor}
			payload, size := data, len(data)
			// The first request also dials, so the connection's serving
			// goroutine exists before goroutines are counted below.
			h, _, err := tr.Trans(w.port, rpc.Header{Command: CmdStat}, nil)
			if err != nil || h.Status != rpc.StatusOK {
				t.Fatalf("STAT: %+v %v", h, err)
			}
			switch tc.cmd {
			case CmdModify, CmdAppend:
				// The file to derive from, on both replicas before the reply.
				base := []byte("the old version")
				if h, _, err = tr.Trans(w.port, rpc.Header{Command: CmdCreate, Arg: 2}, base); err != nil || h.Status != rpc.StatusOK {
					t.Fatalf("create base: %+v %v", h, err)
				}
				req = rpc.Header{Command: CmdModify, Cap: h.Cap, Arg2: PackModifyArg2(-1, int(tc.pfactor))}
				if tc.cmd == CmdAppend {
					req = rpc.Header{Command: CmdAppend, Cap: h.Cap, Arg: tc.pfactor}
					size += len(base)
				}
			}
			held := w.devs[1]
			held.armed.Store(true)
			w.devs[0].watched.Store(true)
			held.watched.Store(true)
			goroutines, writes := runtime.NumGoroutine(), w.set.Writes(1)

			h, _, err = tr.Trans(w.port, req, payload)
			if err != nil || h.Status != rpc.StatusOK {
				t.Fatalf("%s: %+v %v", CommandName(tc.cmd), h, err)
			}
			// The reply is here; the serving goroutine goes on to replica 1
			// and parks there.
			<-held.entered
			if n := w.set.Writes(1) - writes; n != 0 {
				t.Fatalf("replica 1 took %d writes while its device is held", n)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("%d goroutines with the write-behind in flight, %d before the create", n, goroutines)
			}
			held.letGo()

			// Same connection, a request that drains nothing: by the time
			// its reply is read the serving goroutine has finished the
			// previous request's write-behind.
			sz, _, err := tr.Trans(w.port, rpc.Header{Command: CmdSize, Cap: h.Cap}, nil)
			if err != nil || sz.Status != rpc.StatusOK || sz.Arg != uint64(size) {
				t.Fatalf("SIZE after %s: %+v %v", CommandName(tc.cmd), sz, err)
			}
			if w.set.Writes(1) != writes+1 || w.pendingWrites() != 0 || !w.replicasIdentical() {
				t.Fatalf("after the next request: writes(1) %d -> %d pending=%d identical=%v; want one more, 0, true",
					writes, w.set.Writes(1), w.pendingWrites(), w.replicasIdentical())
			}
			if n := w.devs[0].offServe.Load() + held.offServe.Load(); n != 0 {
				t.Fatalf("%d device writes were made off the serving goroutine", n)
			}
			if n := w.eng.CacheStats().PinnedViews; n != 0 {
				t.Fatalf("%d cache pins left after the write-behind settled", n)
			}
		})
	}
}

// TestStalledReplyDoesNotStallTheEngine is the robustness half: connection
// A's reply to a P-FACTOR 1 create is stuck in its socket write, so A's
// serving goroutine cannot get to its write-behind. A DELETE of another
// file (under the metadata lock) and a cold READ of another file on
// connection B must both complete, and leave A's write-behind alone: a
// request waits for its own file's commit only. A's file reads back from
// the cache; a DELETE of it then does A's write-behind itself, and when A
// finally gets unstuck its own continuation is a no-op.
func TestStalledReplyDoesNotStallTheEngine(t *testing.T) {
	for _, first := range []string{"delete", "read"} {
		t.Run(first+"-first", func(t *testing.T) {
			// 16 KiB of cache and three 6 KiB files: A's create evicts the
			// oldest, which makes the READ below a cold one.
			w := newBehindWorld(t, 16<<10)
			b := w.dial(t)
			file := func(tag byte) []byte { return bytes.Repeat([]byte{tag}, 6<<10) }
			create := func(data []byte) capability.Capability {
				h, _, err := b.Trans(w.port, rpc.Header{Command: CmdCreate, Arg: 2}, data)
				if err != nil || h.Status != rpc.StatusOK {
					t.Fatalf("create: %+v %v", h, err)
				}
				return h.Cap
			}
			cold, doomed := create(file('x')), create(file('y'))
			writes := w.set.Writes(1)

			// Connection A: the dispatch a serving goroutine would make,
			// with a sink that blocks like a socket whose peer stopped
			// reading.
			inSink, unblock := make(chan struct{}), make(chan struct{})
			aDone := make(chan error, 1)
			var aReply rpc.Header
			go func() {
				aDone <- w.mux.DispatchStream(nil, w.port, 0, rpc.Header{Command: CmdCreate, Arg: 1}, file('a'),
					func(h rpc.Header, _ []byte, _ bool) error {
						aReply = h
						close(inSink)
						<-unblock
						return nil
					})
			}()
			<-inSink
			if w.set.Writes(1) != writes || w.pendingWrites() != 1 {
				t.Fatalf("with A's reply stuck: writes(1) %d -> %d pending=%d, want no more, 1", writes, w.set.Writes(1), w.pendingWrites())
			}

			del := func() {
				h, _, err := b.Trans(w.port, rpc.Header{Command: CmdDelete, Cap: doomed}, nil)
				if err != nil || h.Status != rpc.StatusOK {
					t.Fatalf("DELETE on B with A stalled: %+v %v", h, err)
				}
			}
			read := func() {
				misses := w.eng.CacheStats().Misses
				h, body, err := b.Trans(w.port, rpc.Header{Command: CmdRead, Cap: cold}, nil)
				if err != nil || h.Status != rpc.StatusOK || !bytes.Equal(body, file('x')) {
					t.Fatalf("cold READ on B with A stalled: %+v %v", h, err)
				}
				if w.eng.CacheStats().Misses != misses+1 {
					t.Fatal("the READ was served from the cache; the test needs a cold one")
				}
				// The server releases the reply's pin once its write has
				// returned, which can be after the reply reaches B. B's
				// requests are served in order, so one more round trip
				// proves the READ's dispatch, release included, is over.
				if h, _, err := b.Trans(w.port, rpc.Header{Command: CmdSize, Cap: cold}, nil); err != nil || h.Status != rpc.StatusOK {
					t.Fatalf("SIZE after the READ: %+v %v", h, err)
				}
			}
			if first == "delete" {
				del()
			} else {
				read()
			}
			// Neither request touched A's write-behind: it is still parked,
			// and A's file is still pinned by its create.
			untouched := func(what string, wantWrites int64) {
				if w.set.Writes(1) != wantWrites || w.pendingWrites() != 1 || w.eng.CacheStats().PinnedViews != 1 {
					t.Fatalf("after B's %s: writes(1)=%d pending=%d pins=%d; want %d, 1, 1",
						what, w.set.Writes(1), w.pendingWrites(), w.eng.CacheStats().PinnedViews, wantWrites)
				}
			}
			wantWrites := writes
			if first == "delete" {
				wantWrites++ // the delete's own inode write
			}
			untouched(first, wantWrites)
			if first == "delete" {
				read()
			} else {
				del()
			}
			untouched("read and delete", writes+1)

			// A's file reads back whole from the cache (a hit, which leaves
			// A's write-behind to the DELETE below).
			if h, body, err := b.Trans(w.port, rpc.Header{Command: CmdRead, Cap: aReply.Cap}, nil); err != nil || h.Status != rpc.StatusOK || !bytes.Equal(body, file('a')) {
				t.Fatalf("reading A's file with A stalled: %+v %v", h, err)
			}

			// A DELETE of A's file waits for A's commit, and writes it.
			writes = w.set.Writes(1)
			if h, _, err := b.Trans(w.port, rpc.Header{Command: CmdDelete, Cap: aReply.Cap}, nil); err != nil || h.Status != rpc.StatusOK {
				t.Fatalf("DELETE of A's file with A stalled: %+v %v", h, err)
			}
			if w.set.Writes(1) != writes+2 || w.pendingWrites() != 0 || !w.replicasIdentical() || w.eng.CacheStats().PinnedViews != 0 {
				t.Fatalf("after deleting A's file: writes(1) %d -> %d pending=%d identical=%v pins=%d; want +2 (A's write, the delete's), 0, true, 0",
					writes, w.set.Writes(1), w.pendingWrites(), w.replicasIdentical(), w.eng.CacheStats().PinnedViews)
			}

			writes = w.set.Writes(1)
			close(unblock)
			if err := <-aDone; err != nil {
				t.Fatalf("A's dispatch: %v", err)
			}
			if w.set.Writes(1) != writes || w.pendingWrites() != 0 || w.eng.CacheStats().PinnedViews != 0 {
				t.Fatalf("A's own continuation was not a no-op: writes(1) %d -> %d", writes, w.set.Writes(1))
			}
		})
	}
}

// TestDeferredCreateOverLocalTransportDoesNotWait: where the reply is a
// return value (the Local and simnet transports) there is no "after the
// reply", so the write-behind gets a goroutine: creates at P-FACTOR 0 and 1
// return while a held replica is parked.
func TestDeferredCreateOverLocalTransportDoesNotWait(t *testing.T) {
	w := newBehindWorld(t, 1<<20)
	held, writes := w.devs[1], w.set.Writes(1)
	held.armed.Store(true)
	local := rpc.NewLocal(w.mux)
	for pf := uint64(0); pf <= 1; pf++ {
		h, _, err := local.Trans(w.port, rpc.Header{Command: CmdCreate, Arg: pf}, []byte("local"))
		if err != nil || h.Status != rpc.StatusOK {
			t.Fatalf("P-FACTOR %d create over Local: %+v %v", pf, h, err)
		}
	}
	<-held.entered
	if n := w.set.Writes(1) - writes; n != 0 {
		t.Fatalf("replica 1 took %d writes while its device is held", n)
	}
	held.letGo()
	w.set.Drain()
	if w.set.Writes(1) != writes+2 || !w.replicasIdentical() {
		t.Fatalf("after Drain: writes(1) %d -> %d identical=%v, want two more, true", writes, w.set.Writes(1), w.replicasIdentical())
	}
}

// TestWriteBehindDurableAcrossShutdown: P-FACTOR 1 creates over TCP on two
// file-backed disks, then the server and the engine are closed the moment
// the last reply is read. The write-behind runs inside serveConn, which
// TCPServer.Close waits for, so nothing acknowledged is lost: each image,
// opened alone, serves every file, checksum-verified.
func TestWriteBehindDurableAcrossShutdown(t *testing.T) {
	const bs, blocks, files = 512, 4096, 40
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "r0.img"), filepath.Join(dir, "r1.img")}
	devs := make([]disk.Device, 2)
	for i, p := range paths {
		d, err := disk.CreateFile(p, bs, blocks)
		if err != nil {
			t.Fatalf("CreateFile: %v", err)
		}
		devs[i] = d
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := bullet.Format(set, 200); err != nil {
		t.Fatal(err)
	}
	port := capability.PortFromString("durable")
	eng, err := bullet.New(set, bullet.Options{Port: port, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mux := rpc.NewMux(0)
	New(eng).Register(mux)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{port: addr}), 10*time.Second)
	defer tr.Close()

	content := func(i int) []byte { return bytes.Repeat([]byte(fmt.Sprintf("file %02d ", i)), 1+i*7) }
	caps := make([]capability.Capability, files)
	for i := range caps {
		h, _, err := tr.Trans(port, rpc.Header{Command: CmdCreate, Arg: 1}, content(i))
		if err != nil || h.Status != rpc.StatusOK {
			t.Fatalf("create %d: %+v %v", i, h, err)
		}
		caps[i] = h.Cap
	}
	// No Sync, no Drain: bulletd's shutdown order.
	if err := srv.Close(); err != nil {
		t.Fatalf("TCPServer.Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("engine.Close: %v", err)
	}

	for i, p := range paths {
		d, err := disk.OpenFile(p, bs)
		if err != nil {
			t.Fatalf("OpenFile(%s): %v", p, err)
		}
		alone, err := disk.NewReplicaSet(d)
		if err != nil {
			t.Fatal(err)
		}
		e, err := bullet.New(alone, bullet.Options{Port: port, CacheBytes: 1 << 20})
		if err != nil {
			t.Fatalf("replica %d alone: %v", i, err)
		}
		for j, c := range caps {
			got, err := e.Read(c)
			if err != nil || !bytes.Equal(got, content(j)) {
				t.Fatalf("replica %d alone, file %d: %d bytes, %v", i, j, len(got), err)
			}
		}
		if faults := e.Metrics().Snapshot().Counters["bullet.checksum_faults"]; faults != 0 {
			t.Fatalf("replica %d alone: %d checksum faults", i, faults)
		}
		if backfills := e.Metrics().Snapshot().Counters["bullet.checksum_backfills"]; backfills != 0 {
			t.Fatalf("replica %d alone: %d files had no checksum on disk to verify against", i, backfills)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
