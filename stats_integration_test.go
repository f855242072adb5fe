package bulletfs_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
)

// statsWorld is a Bullet server with a deliberately tiny RAM cache,
// served through the full svc/client stack (client stubs -> RPC mux ->
// service handler -> engine), so the test can drive real cache evictions
// and read the metrics back over the wire.
type statsWorld struct {
	engine *bullet.Server
	cl     *client.Client
}

func newStatsWorld(t *testing.T, cacheBytes int64) *statsWorld {
	t.Helper()
	var devs []disk.Device
	for i := 0; i < 2; i++ {
		mem, err := disk.NewMem(512, (8<<20)/512)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs = append(devs, mem)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(set, 100); err != nil {
		t.Fatalf("Format: %v", err)
	}
	engine, err := bullet.New(set, bullet.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(func() { engine.Close() }) //nolint:errcheck // test cleanup
	mux := rpc.NewMux(0)
	mux.AttachMetrics(engine.Metrics(), bulletsvc.CommandName)
	bulletsvc.New(engine).Register(mux)
	return &statsWorld{engine: engine, cl: client.New(rpc.NewLocal(mux))}
}

// TestStatsAcrossReadWarmRead drives the canonical observability
// scenario: create two files that cannot share the cache, so reading the
// first is a miss (fault from disk) and re-reading it is a hit — and
// asserts the counters seen through the STATS RPC move accordingly.
func TestStatsAcrossReadWarmRead(t *testing.T) {
	// 64 KB arena; two 40 KB files can never be resident together.
	w := newStatsWorld(t, 64<<10)
	port := w.engine.Port()

	payloadA := bytes.Repeat([]byte{0xA5}, 40<<10)
	capA, err := w.cl.Create(port, payloadA, 2)
	if err != nil {
		t.Fatalf("Create A: %v", err)
	}
	if _, err := w.cl.Create(port, bytes.Repeat([]byte{0x5A}, 40<<10), 2); err != nil {
		t.Fatalf("Create B: %v", err)
	}

	snap0, err := w.cl.Stats(capA)
	if err != nil {
		t.Fatalf("Stats before reads: %v", err)
	}
	if snap0.Gauges["cache.evictions"] == 0 {
		t.Fatalf("creating B should have evicted A; evictions = %d", snap0.Gauges["cache.evictions"])
	}

	// Cold read: A was evicted, so this faults from disk.
	got, err := w.cl.Read(capA)
	if err != nil {
		t.Fatalf("cold Read A: %v", err)
	}
	if !bytes.Equal(got, payloadA) {
		t.Fatal("cold read returned wrong bytes")
	}
	snap1, err := w.cl.Stats(capA)
	if err != nil {
		t.Fatalf("Stats after cold read: %v", err)
	}
	if d := snap1.Gauges["cache.misses"] - snap0.Gauges["cache.misses"]; d != 1 {
		t.Errorf("cold read: want 1 new cache miss, got %d", d)
	}

	// Warm read: A is resident again; no new miss, one new hit.
	if _, err := w.cl.Read(capA); err != nil {
		t.Fatalf("warm Read A: %v", err)
	}
	snap2, err := w.cl.Stats(capA)
	if err != nil {
		t.Fatalf("Stats after warm read: %v", err)
	}
	if d := snap2.Gauges["cache.hits"] - snap1.Gauges["cache.hits"]; d != 1 {
		t.Errorf("warm read: want 1 new cache hit, got %d", d)
	}
	if d := snap2.Gauges["cache.misses"] - snap1.Gauges["cache.misses"]; d != 0 {
		t.Errorf("warm read: want no new cache miss, got %d", d)
	}

	// The RPC layer saw both reads and every stats query.
	if n := snap2.Counters["rpc.read.requests"]; n != 2 {
		t.Errorf("rpc.read.requests = %d, want 2", n)
	}
	if n := snap2.Counters["bullet.reads"]; n != 2 {
		t.Errorf("bullet.reads = %d, want 2", n)
	}
	if n := snap2.Counters["rpc.stats.requests"]; n < 2 {
		t.Errorf("rpc.stats.requests = %d, want >= 2", n)
	}
	if h, ok := snap2.Histograms["rpc.read.latency_ns"]; !ok || h.Count != 2 {
		t.Errorf("rpc.read.latency_ns histogram: %+v, want count 2", h)
	}
	// The engine timed both commits (p-factor 2).
	if h, ok := snap2.Histograms["bullet.commit_ns.p2"]; !ok || h.Count != 2 {
		t.Errorf("bullet.commit_ns.p2 histogram: %+v, want count 2", h)
	}
}

// TestStatsRequiresReadRight asserts the STATS op is capability-checked:
// a capability restricted away from the read right is refused with
// ErrBadRights, and a garbage check field with ErrBadCheck.
func TestStatsRequiresReadRight(t *testing.T) {
	w := newStatsWorld(t, 1<<20)
	capA, err := w.cl.Create(w.engine.Port(), []byte("observable"), 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	delOnly, err := capability.Restrict(capA, capability.RightDelete)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if _, err := w.cl.Stats(delOnly); !errors.Is(err, capability.ErrBadRights) {
		t.Errorf("Stats with delete-only capability: err = %v, want ErrBadRights", err)
	}

	forged := capA
	forged.Check[0] ^= 0xFF
	if _, err := w.cl.Stats(forged); !errors.Is(err, capability.ErrBadCheck) {
		t.Errorf("Stats with forged check: err = %v, want ErrBadCheck", err)
	}

	if _, err := w.cl.Stats(capA); err != nil {
		t.Errorf("Stats with full capability: %v", err)
	}
}

// TestClientTransportErrorsAreTagged asserts transport-level failures are
// distinguishable from server rejections: errors.Is(err, ErrTransport).
func TestClientTransportErrorsAreTagged(t *testing.T) {
	port := capability.PortFromString("unreachable")
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{
		port: "127.0.0.1:1", // nothing listens on port 1
	}), 2*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	cl := client.New(tr)

	_, err := cl.Create(port, []byte("x"), 0)
	if !errors.Is(err, client.ErrTransport) {
		t.Errorf("dial to dead address: err = %v, want ErrTransport", err)
	}

	// A server-side rejection must NOT carry the transport tag.
	w := newStatsWorld(t, 1<<20)
	capA, err := w.cl.Create(w.engine.Port(), []byte("y"), 0)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	forged := capA
	forged.Check[0] ^= 0xFF
	_, err = w.cl.Read(forged)
	if errors.Is(err, client.ErrTransport) {
		t.Errorf("capability rejection wrongly tagged as transport failure: %v", err)
	}
	if !errors.Is(err, capability.ErrBadCheck) {
		t.Errorf("capability rejection: err = %v, want ErrBadCheck", err)
	}
}
