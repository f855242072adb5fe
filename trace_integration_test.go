package bulletfs_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// slowDevice stretches every read so concurrent faults for the same file
// reliably overlap: the second reader must find the first one's fault in
// flight and wait on it rather than racing past it.
type slowDevice struct {
	disk.Device
	delay time.Duration
}

func (d *slowDevice) ReadAt(p []byte, off int64) error {
	time.Sleep(d.delay)
	return d.Device.ReadAt(p, off)
}

// traceWorld is the full wire stack — client stubs with trace IDs -> TCP
// transport (v2 frames) -> mux -> service -> engine -> cache/disk — with
// a flight recorder attached, exactly as bulletd wires it.
type traceWorld struct {
	engine *bullet.Server
	rec    *trace.Recorder
	cl     *client.Client
	addr   string
	t      *testing.T
}

// newClient opens an extra client on its own TCP connection, simulating
// a second client machine (one TCPTransport serializes transactions on
// its pooled connection, so true concurrency needs two transports).
func (w *traceWorld) newClient() *client.Client {
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{
		w.engine.Port(): w.addr,
	}), 10*time.Second)
	w.t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
	return client.New(tr, client.WithTraceIDs())
}

func newTraceWorld(t *testing.T, cacheBytes int64, readDelay time.Duration) *traceWorld {
	t.Helper()
	var devs []disk.Device
	for i := 0; i < 2; i++ {
		mem, err := disk.NewMem(512, (8<<20)/512)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		if readDelay > 0 {
			devs = append(devs, &slowDevice{Device: mem, delay: readDelay})
		} else {
			devs = append(devs, mem)
		}
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

	rec := trace.NewRecorder(trace.WithCapacity(64, 8))
	t.Cleanup(rec.Close)
	mux := rpc.NewMux(0)
	mux.AttachRecorder(rec)
	svc := bulletsvc.New(engine)
	svc.AttachRecorder(rec)
	svc.Register(mux)

	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{
		engine.Port(): addr,
	}), 10*time.Second)
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup

	return &traceWorld{
		engine: engine,
		rec:    rec,
		cl:     client.New(tr, client.WithTraceIDs()),
		addr:   addr,
		t:      t,
	}
}

// spansOf collects all spans with the given op across a trace.
func spansOf(tr *trace.JSONTrace, op string) []trace.JSONSpan {
	var out []trace.JSONSpan
	for _, sp := range tr.Spans {
		if sp.Op == op {
			out = append(out, sp)
		}
	}
	return out
}

// traceWith returns the traces containing at least one span with op.
func tracesWith(ts []trace.JSONTrace, op string) []trace.JSONTrace {
	var out []trace.JSONTrace
	for i := range ts {
		if len(spansOf(&ts[i], op)) > 0 {
			out = append(out, ts[i])
		}
	}
	return out
}

// TestTraceColdReadSpansAllLayers is the wire round trip of the tentpole:
// a cold read fetched through the TRACE RPC (the same call bulletctl
// trace -json makes) must show a span tree touching all four layers —
// rpc request -> engine read -> cache miss -> disk read — under the
// client-chosen trace ID, plus the replica fan-out on the create path.
func TestTraceColdReadSpansAllLayers(t *testing.T) {
	// 64 KB arena, two 40 KB files: creating B evicts A, so reading A is
	// a genuine cold read that faults from disk.
	w := newTraceWorld(t, 64<<10, 0)
	port := w.engine.Port()

	payload := bytes.Repeat([]byte{0xAB}, 40<<10)
	capA, err := w.cl.Create(port, payload, 2)
	if err != nil {
		t.Fatalf("Create A: %v", err)
	}
	if _, err := w.cl.Create(port, bytes.Repeat([]byte{0xBA}, 40<<10), 2); err != nil {
		t.Fatalf("Create B: %v", err)
	}
	if got, err := w.cl.Read(capA); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("cold Read A: %v", err)
	}

	ts, err := w.cl.Traces(capA, false)
	if err != nil {
		t.Fatalf("Traces: %v", err)
	}

	// The create fans out one replica-commit child per live replica.
	creates := tracesWith(ts, "create")
	if len(creates) != 2 {
		t.Fatalf("%d create traces, want 2", len(creates))
	}
	for _, ct := range creates {
		commits := spansOf(&ct, "replica-commit")
		if len(commits) != 2 {
			t.Fatalf("create trace %s has %d replica-commit spans, want one per live replica (2): %+v",
				ct.ID, len(commits), ct.Spans)
		}
		seen := map[int8]bool{}
		for _, sp := range commits {
			seen[sp.Replica] = true
			if sp.PFactor != 2 {
				t.Errorf("replica-commit p_factor = %d, want 2", sp.PFactor)
			}
			if sp.Dur == -1 {
				t.Errorf("p-factor-2 commit on replica %d still pending in the record", sp.Replica)
			}
		}
		if !seen[0] || !seen[1] {
			t.Errorf("create trace %s commit replicas = %v, want {0,1}", ct.ID, seen)
		}
	}

	// The cold read touches every layer.
	reads := tracesWith(ts, "read")
	if len(reads) != 1 {
		t.Fatalf("%d read traces, want 1", len(reads))
	}
	rt := reads[0]
	layers := map[string]bool{}
	for _, sp := range rt.Spans {
		layers[sp.Layer] = true
	}
	for _, l := range []string{"rpc", "engine", "cache", "disk"} {
		if !layers[l] {
			t.Errorf("cold-read trace missing layer %q: %+v", l, rt.Spans)
		}
	}
	if root := rt.Spans[0]; root.Op != "request" || root.Parent != -1 {
		t.Errorf("first span = %+v, want the rpc request root", root)
	}
	if lookups := spansOf(&rt, "cache-lookup"); len(lookups) == 0 || lookups[0].CacheHit != "miss" {
		t.Errorf("cold read cache-lookup spans = %+v, want a miss", lookups)
	}
	if faults := spansOf(&rt, "fault"); len(faults) != 1 || faults[0].Merged {
		t.Errorf("fault spans = %+v, want one unmerged fault", faults)
	}
	if dr := spansOf(&rt, "disk-read"); len(dr) != 1 || dr[0].Bytes != int64(len(payload)) {
		t.Errorf("disk-read spans = %+v, want one covering %d bytes", dr, len(payload))
	}

	// The ID the server filed it under is the ID this client generated:
	// client IDs keep the server's local-assignment bit clear.
	if rt.ID[0] >= '8' {
		t.Errorf("read trace ID %s has the server-local bit set; client IDs must not", rt.ID)
	}
}

// TestTraceConcurrentColdReadsMergeOnce: two concurrent cold reads of the
// same file produce two traces, each with a fault span — and exactly one
// of them is marked merged (the waiter that piggybacked on the leader's
// disk read). The fault-merge accounting must never double-count.
func TestTraceConcurrentColdReadsMergeOnce(t *testing.T) {
	// Slow disk reads guarantee the second read arrives while the first
	// one's fault is still in flight; creating B evicts A from the
	// 16 KB arena so both reads of A start cold.
	w := newTraceWorld(t, 16<<10, 30*time.Millisecond)
	port := w.engine.Port()

	payload := bytes.Repeat([]byte{0xCD}, 12<<10)
	capA, err := w.cl.Create(port, payload, 0)
	if err != nil {
		t.Fatalf("Create A: %v", err)
	}
	if _, err := w.cl.Create(port, bytes.Repeat([]byte{0xDC}, 12<<10), 0); err != nil {
		t.Fatalf("Create B: %v", err)
	}
	// B stays pinned until its write-behind settles, which may still be
	// running after its reply; a miss on A waits for A's writes only, so
	// wait here, or the leader's reservation can find the arena pinned
	// solid, read A uncached, and leave the merged reader to read again.
	w.engine.Sync()

	clients := []*client.Client{w.cl, w.newClient()}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 1 {
				time.Sleep(5 * time.Millisecond) // land inside the leader's fault window
			}
			got, err := clients[i].Read(capA)
			if err == nil && !bytes.Equal(got, payload) {
				err = errors.New("wrong bytes")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent read %d: %v", i, err)
		}
	}

	ts, err := w.cl.Traces(capA, false)
	if err != nil {
		t.Fatalf("Traces: %v", err)
	}
	reads := tracesWith(ts, "read")
	if len(reads) != 2 {
		t.Fatalf("%d read traces, want 2", len(reads))
	}
	merged, diskReads := 0, 0
	for _, rt := range reads {
		faults := spansOf(&rt, "fault")
		if len(faults) != 1 {
			t.Fatalf("trace %s has %d fault spans, want 1", rt.ID, len(faults))
		}
		if faults[0].Merged {
			merged++
		}
		diskReads += len(spansOf(&rt, "disk-read"))
	}
	if merged != 1 {
		t.Errorf("merged fault spans = %d across both reads, want exactly 1", merged)
	}
	if diskReads != 1 {
		t.Errorf("disk-read spans = %d across both reads, want 1 (one physical read, shared)", diskReads)
	}
}

// TestTraceRequiresReadRight: the TRACE RPC is capability-checked with
// the same rule as STATS — the read right admits, anything less refuses.
func TestTraceRequiresReadRight(t *testing.T) {
	w := newTraceWorld(t, 1<<20, 0)
	capA, err := w.cl.Create(w.engine.Port(), []byte("observable"), 0)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	delOnly, err := capability.Restrict(capA, capability.RightDelete)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if _, err := w.cl.Traces(delOnly, false); !errors.Is(err, capability.ErrBadRights) {
		t.Errorf("Traces with delete-only capability: err = %v, want ErrBadRights", err)
	}
	forged := capA
	forged.Check[0] ^= 0xFF
	if _, err := w.cl.Traces(forged, false); !errors.Is(err, capability.ErrBadCheck) {
		t.Errorf("Traces with forged check: err = %v, want ErrBadCheck", err)
	}
	if _, err := w.cl.Traces(capA, true); err != nil {
		t.Errorf("Traces -slow with full capability: %v", err)
	}
}
