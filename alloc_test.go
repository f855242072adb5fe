package bulletfs_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
)

// The request paths' allocation gates, over the stack bulletd runs:
// client.Client on a TCPTransport, TCPServer, bulletsvc and the engine,
// here on MemDisk replicas. Client and server share the process, so a
// count covers both halves of a call. With the cache arena outside the
// Go heap the heap is small and every allocation shortens the time to the
// next collection, so these counts are the server's GC pacing.

// allocStack is one engine behind a TCP server and a client dialled to it.
func allocStack(t *testing.T) (*bullet.Server, *client.Client) {
	return allocStackSized(t, 1<<20, 8192)
}

// allocStackSized is allocStack with a cacheBytes arena (also the largest
// file) over two MemDisks of diskBlocks 512-byte blocks.
func allocStackSized(t *testing.T, cacheBytes, diskBlocks int64) (*bullet.Server, *client.Client) {
	t.Helper()
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, diskBlocks)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs[i] = mem
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(set, 500); err != nil {
		t.Fatalf("Format: %v", err)
	}
	eng, err := bullet.New(set, bullet.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(eng.Sync)
	mux := rpc.NewMux(0)
	bulletsvc.New(eng).Register(mux)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{eng.Port(): addr}), 10*time.Second)
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
	return eng, client.New(tr)
}

// TestCachedReadOverTCPAllocs: a cached 4 KiB READ costs the client its
// reply buffer and the server its read lease (the pin embedded in it),
// and nothing else, under -race too. It used to cost 12: per-request
// closures, dispatch state, vector and View objects on the server, a
// vector on the client.
func TestCachedReadOverTCPAllocs(t *testing.T) {
	eng, cl := allocStack(t)
	payload := bytes.Repeat([]byte{0x5a}, 4<<10)
	c, err := cl.Create(eng.Port(), payload, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	read := func() {
		got, err := cl.Read(c)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("Read = %d bytes, %v", len(got), err)
		}
	}
	read() // dial and warm
	if allocs := testing.AllocsPerRun(200, read); allocs > 2 {
		t.Errorf("cached 4 KiB read over TCP: %.0f allocs per call, want <= 2", allocs)
	}
}

// TestCreateDeleteOverTCPAllocs: Create(4 KiB, P-FACTOR 2) + Delete. The
// block-aligned file is written to both replicas straight from its pinned
// cache copy, each inode block is copied into a reused buffer, and
// DELETE does not cache the capability it is about to kill. What is left
// is the create's pin and its two write-through closures, and the
// delete's write-back closure: 4 (5 under -race). It used to cost 29.
func TestCreateDeleteOverTCPAllocs(t *testing.T) {
	eng, cl := allocStack(t)
	payload := bytes.Repeat([]byte{0xa5}, 4<<10)
	pair := func() {
		c, err := cl.Create(eng.Port(), payload, 2)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if err := cl.Delete(c); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	pair()
	if allocs := testing.AllocsPerRun(200, pair); allocs > 5 {
		t.Errorf("create + delete over TCP: %.0f allocs per pair, want <= 5", allocs)
	}
}

// TestDeferredCreateDeleteAllocBytes: on the engine alone, a 4 KiB
// CreateDeferred, its later and a Delete allocate under 512 bytes per
// pair (about 250 measured); the padded write-through copy and a fresh
// inode block per replica write used to make it about 6.5 KiB.
func TestDeferredCreateDeleteAllocBytes(t *testing.T) {
	eng, _ := allocStack(t)
	payload := bytes.Repeat([]byte{0x3c}, 4<<10)
	pair := func() {
		c, later, err := eng.CreateDeferred(nil, nil, payload, 1)
		if err != nil {
			t.Fatalf("CreateDeferred: %v", err)
		}
		if later != nil {
			later()
		}
		if err := eng.Delete(nil, nil, c); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		pair() // warm the pools and the capability cache's maps
	}
	const pairs = 500
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < pairs; i++ {
		pair()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / pairs; per >= 512 {
		t.Errorf("CreateDeferred + later + Delete: %d bytes allocated per pair, want < 512", per)
	}
}

// TestCreateOverTCPRetainsNoRequestBuffer: a CREATE's payload is read off
// the socket straight into its cache slot, which lives outside the Go
// heap, so after the create the server holds no buffer the size of the
// file. The connection's request buffer used to grow to the largest
// CREATE and keep it for the connection's life. One frame is the
// large-file path: 16 MiB goes as one CREATE like 1 MiB does, and reads
// back byte-exact.
func TestCreateOverTCPRetainsNoRequestBuffer(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		size                   int
		cacheBytes, diskBlocks int64
	}{
		{"1MiB", 1 << 20, 1 << 20, 8192},
		{"16MiB", 16 << 20, 17 << 20, 36 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, cl := allocStackSized(t, tc.cacheBytes, tc.diskBlocks)
			small, err := cl.Create(eng.Port(), []byte("dial and warm"), 2)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			data := make([]byte, tc.size)
			for i := range data {
				data[i] = byte(i ^ i>>11)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC() // twice: the second empties what the first moved to sync.Pool victim caches
			runtime.ReadMemStats(&before)
			c, err := cl.Create(eng.Port(), data, 2)
			if err != nil {
				t.Fatalf("Create(%s): %v", tc.name, err)
			}
			eng.Sync()
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 64<<10 {
				t.Errorf("heap grew by %d bytes across one %s CREATE, want < 64 KiB", grew, tc.name)
			}
			if got, err := cl.Read(c); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Read back %d of %d bytes, %v; match = %v", len(got), len(data), err, bytes.Equal(got, data))
			}
			for _, f := range []capability.Capability{small, c} {
				if err := cl.Delete(f); err != nil {
					t.Fatalf("Delete: %v", err)
				}
			}
		})
	}
}
