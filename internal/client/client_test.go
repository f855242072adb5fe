package client

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// newEngine builds a two-disk Bullet engine for service tests.
func newEngine(t *testing.T) *bullet.Server {
	t.Helper()
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs[i] = mem
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(set, 300); err != nil {
		t.Fatalf("Format: %v", err)
	}
	eng, err := bullet.New(set, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(eng.Sync)
	return eng
}

// localSetup wires an engine to a client over the in-process transport.
func localSetup(t *testing.T, opts ...Option) (*Client, *bullet.Server) {
	t.Helper()
	eng := newEngine(t)
	mux := rpc.NewMux(0)
	bulletsvc.New(eng).Register(mux)
	return New(rpc.NewLocal(mux), opts...), eng
}

func TestClientCreateReadDelete(t *testing.T) {
	cl, eng := localSetup(t)
	data := []byte("whole file transfer over RPC")
	c, err := cl.Create(eng.Port(), data, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	size, err := cl.Size(c)
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Size = %d, %v", size, err)
	}
	got, err := cl.Read(c)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q", got)
	}
	if err := cl.Delete(c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := cl.Read(c); !errors.Is(err, bullet.ErrNoSuchFile) {
		t.Fatalf("Read after delete err = %v, want ErrNoSuchFile across the wire", err)
	}
}

func TestClientErrorsCrossTheWire(t *testing.T) {
	cl, eng := localSetup(t)
	c, err := cl.Create(eng.Port(), []byte("x"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	forged := c
	forged.Check[3] ^= 1
	if _, err := cl.Read(forged); !errors.Is(err, capability.ErrBadCheck) {
		t.Fatalf("forged read err = %v, want ErrBadCheck", err)
	}
	readOnly, err := capability.Restrict(c, capability.RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if err := cl.Delete(readOnly); !errors.Is(err, capability.ErrBadRights) {
		t.Fatalf("unauthorized delete err = %v, want ErrBadRights", err)
	}
	if _, err := cl.Create(eng.Port(), []byte("y"), 99); !errors.Is(err, bullet.ErrBadPFactor) {
		t.Fatalf("bad p-factor err = %v", err)
	}
	if _, err := cl.ReadRange(c, -1, 5); !errors.Is(err, bullet.ErrBadOffset) {
		t.Fatalf("bad offset err = %v", err)
	}
}

func TestClientModifyAppend(t *testing.T) {
	cl, eng := localSetup(t)
	v1, err := cl.Create(eng.Port(), []byte("version one"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	v2, err := cl.Modify(v1, 8, []byte("two"), -1, 2)
	if err != nil {
		t.Fatalf("Modify: %v", err)
	}
	got, err := cl.Read(v2)
	if err != nil || !bytes.Equal(got, []byte("version two")) {
		t.Fatalf("v2 = %q, %v", got, err)
	}
	v3, err := cl.Append(v2, []byte(" plus"), 2)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	got, err = cl.Read(v3)
	if err != nil || !bytes.Equal(got, []byte("version two plus")) {
		t.Fatalf("v3 = %q, %v", got, err)
	}
	// Original unchanged.
	got, err = cl.Read(v1)
	if err != nil || !bytes.Equal(got, []byte("version one")) {
		t.Fatalf("v1 = %q, %v", got, err)
	}
}

func TestClientReadRange(t *testing.T) {
	cl, eng := localSetup(t)
	c, err := cl.Create(eng.Port(), []byte("abcdefghij"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := cl.ReadRange(c, 2, 3)
	if err != nil || string(got) != "cde" {
		t.Fatalf("ReadRange = %q, %v", got, err)
	}
}

func TestClientStatSyncCompact(t *testing.T) {
	cl, eng := localSetup(t)
	if _, err := cl.Create(eng.Port(), make([]byte, 1000), 0); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := cl.Sync(eng.Port()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	st, err := cl.Stat(eng.Port())
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Engine.Creates != 1 || st.LiveFiles != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxFileSize != 1<<20 {
		t.Fatalf("MaxFileSize = %d", st.MaxFileSize)
	}
	if err := cl.CompactDisk(eng.Port()); err != nil {
		t.Fatalf("CompactDisk: %v", err)
	}
}

func TestClientCacheServesRepeatReads(t *testing.T) {
	cl, eng := localSetup(t, WithCache(1<<20))
	data := []byte("read me twice")
	c, err := cl.Create(eng.Port(), data, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	engineReadsBefore := eng.Stats().Reads
	for i := 0; i < 5; i++ {
		got, err := cl.Read(c)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Read %d = %q, %v", i, got, err)
		}
	}
	if reads := eng.Stats().Reads; reads != engineReadsBefore {
		t.Fatalf("server saw %d reads, want 0 (client cache)", reads-engineReadsBefore)
	}
	cs := cl.CacheStats()
	if cs.Files != 1 || cs.Hits != 5 {
		t.Fatalf("client cache stats = %+v", cs)
	}
	// Size is also answered locally.
	if n, err := cl.Size(c); err != nil || n != int64(len(data)) {
		t.Fatalf("Size = %d, %v", n, err)
	}
}

func TestClientCacheKeyedByExactCapability(t *testing.T) {
	cl, eng := localSetup(t, WithCache(1<<20))
	c, err := cl.Create(eng.Port(), []byte("guarded"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := cl.Read(c); err != nil {
		t.Fatalf("Read: %v", err)
	}
	// A forged capability for the same object must NOT hit the cache.
	forged := c
	forged.Check[0] ^= 1
	if _, err := cl.Read(forged); !errors.Is(err, capability.ErrBadCheck) {
		t.Fatalf("forged read served from cache: %v", err)
	}
}

func TestClientCacheEviction(t *testing.T) {
	cl, eng := localSetup(t, WithCache(1000))
	var caps []capability.Capability
	for i := 0; i < 5; i++ {
		c, err := cl.Create(eng.Port(), bytes.Repeat([]byte{byte(i)}, 300), 2)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		caps = append(caps, c)
	}
	cs := cl.CacheStats()
	if cs.Bytes > 1000 {
		t.Fatalf("client cache overcommitted: %+v", cs)
	}
	// All files still readable (older ones from the server).
	for i, c := range caps {
		got, err := cl.Read(c)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 300)) {
			t.Fatalf("file %d: %q, %v", i, got, err)
		}
	}
}

func TestClientDeleteDropsCachedCopy(t *testing.T) {
	cl, eng := localSetup(t, WithCache(1<<20))
	c, err := cl.Create(eng.Port(), []byte("bye"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := cl.Delete(c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := cl.Read(c); !errors.Is(err, bullet.ErrNoSuchFile) {
		t.Fatalf("Read after delete served stale cache: %v", err)
	}
}

func TestClientOverTCP(t *testing.T) {
	eng := newEngine(t)
	mux := rpc.NewMux(0)
	bulletsvc.New(eng).Register(mux)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{eng.Port(): addr}), 5*time.Second)
	defer tr.Close()
	cl := New(tr)

	data := bytes.Repeat([]byte{0x42}, 200_000)
	c, err := cl.Create(eng.Port(), data, 2)
	if err != nil {
		t.Fatalf("Create over TCP: %v", err)
	}
	got, err := cl.Read(c)
	if err != nil {
		t.Fatalf("Read over TCP: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload corrupted over TCP")
	}
	st, err := cl.Stat(eng.Port())
	if err != nil {
		t.Fatalf("Stat over TCP: %v", err)
	}
	if st.Engine.Creates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClientRetriesWithAtMostOnceCreate(t *testing.T) {
	eng := newEngine(t)
	mux := rpc.NewMux(0)
	bulletsvc.New(eng).Register(mux)
	flaky := rpc.NewFlaky(rpc.NewLocal(mux), 0, 0, 7)
	// First create executes but its reply is lost; the retry must not
	// create a second file.
	flaky.ScriptDrops([]bool{false, false}, []bool{true, false})
	cl := New(rpc.NewRetrier(flaky, 3))

	c, err := cl.Create(eng.Port(), []byte("exactly one"), 2)
	if err != nil {
		t.Fatalf("Create with flaky transport: %v", err)
	}
	if eng.Live() != 1 {
		t.Fatalf("Live = %d, want 1 (at-most-once)", eng.Live())
	}
	got, err := cl.Read(c)
	if err != nil || !bytes.Equal(got, []byte("exactly one")) {
		t.Fatalf("Read = %q, %v", got, err)
	}
}

func TestClientSurvivesHeavyLoss(t *testing.T) {
	eng := newEngine(t)
	mux := rpc.NewMux(0)
	bulletsvc.New(eng).Register(mux)
	flaky := rpc.NewFlaky(rpc.NewLocal(mux), 0.3, 0.3, 99)
	cl := New(rpc.NewRetrier(flaky, 25))

	for i := 0; i < 20; i++ {
		data := bytes.Repeat([]byte{byte(i)}, 100*(i+1))
		c, err := cl.Create(eng.Port(), data, 2)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		got, err := cl.Read(c)
		if err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("file %d corrupted", i)
		}
	}
	if eng.Live() != 20 {
		t.Fatalf("Live = %d, want exactly 20 despite retries", eng.Live())
	}
	t.Logf("flaky transport: %d attempts, %d dropped", flaky.Requests, flaky.Dropped)
}

func TestBadCommandRejected(t *testing.T) {
	eng := newEngine(t)
	mux := rpc.NewMux(0)
	bulletsvc.New(eng).Register(mux)
	tr := rpc.NewLocal(mux)
	rep, _, err := tr.Trans(eng.Port(), rpc.Header{Command: 999}, nil)
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if rep.Status != rpc.StatusBadCommand {
		t.Fatalf("status = %v, want StatusBadCommand", rep.Status)
	}
}

func TestPackUnpackModifyArg2(t *testing.T) {
	cases := []struct {
		size int64
		pf   int
	}{
		{-1, 0}, {0, 1}, {12345, 2}, {1 << 32, 3}, {(1 << 40), 15},
	}
	for _, c := range cases {
		size, pf := bulletsvc.UnpackModifyArg2(bulletsvc.PackModifyArg2(c.size, c.pf))
		if size != c.size || pf != c.pf {
			t.Fatalf("round trip (%d,%d) -> (%d,%d)", c.size, c.pf, size, pf)
		}
	}
}

// TestClientBudgetShedsAsDeadline pins the deadline budget's client-side
// contract: a spent budget surfaces as trace.ErrDeadlineExceeded — never
// as a generic transport failure — and a budget with headroom changes
// nothing. The mux's clock is injected, so the shed is deterministic.
func TestClientBudgetShedsAsDeadline(t *testing.T) {
	eng := newEngine(t)
	mux := rpc.NewMux(0)
	svc := bulletsvc.New(eng)
	svc.Register(mux)

	// Seed the file with an unbudgeted client on a sane clock.
	data := []byte("pay the toll before the bridge")
	c, err := New(rpc.NewLocal(mux)).Create(eng.Port(), data, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Every look at the clock now jumps an hour, so the millisecond
	// budget is spent by the service's first shed check.
	var ticks atomic.Int64
	mux.SetNow(func() int64 { return ticks.Add(int64(time.Hour)) })
	cl := New(rpc.NewLocal(mux), WithBudget(time.Millisecond))
	_, err = cl.Read(c)
	if !errors.Is(err, trace.ErrDeadlineExceeded) {
		t.Fatalf("Read with spent budget err = %v, want trace.ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrTransport) {
		t.Fatalf("deadline shed classified as a transport failure: %v", err)
	}
	if got := svc.DeadlineSheds(); got != 1 {
		t.Fatalf("DeadlineSheds = %d, want 1", got)
	}

	// Freeze the clock: the same budget can never expire, and the
	// budgeted read behaves exactly like an unbudgeted one.
	mux.SetNow(func() int64 { return 1 })
	got, err := cl.Read(c)
	if err != nil {
		t.Fatalf("Read with frozen clock: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, want %q", got, data)
	}
}
