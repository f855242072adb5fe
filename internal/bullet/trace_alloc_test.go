package bullet

import (
	"bytes"
	"testing"
	"time"

	"bulletfs/internal/disk"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// TestTracedCachedReadAddsNoAllocs proves the tentpole's zero-cost
// claim at the engine level: a warm (cache-hit) ReadView — the read every
// server runs — with a live span context allocates exactly as much as an
// untraced one — the span arena,
// the recorder ring and the ctx pool never touch the heap on the fast
// path. The CI workflow runs this under -race too.
func TestTracedCachedReadAddsNoAllocs(t *testing.T) {
	w := newWorld(t, 2, Options{})
	payload := bytes.Repeat([]byte{0x42}, 4<<10)
	c := mustCreate(t, w.srv, payload, 2)
	if !bytes.Equal(mustRead(t, w.srv, c), payload) {
		t.Fatal("warm-up read returned wrong bytes")
	}

	base := testing.AllocsPerRun(200, func() {
		l, err := w.srv.ReadView(nil, nil, c, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
	})

	rec := trace.NewRecorder(trace.WithCapacity(8, 8))
	defer rec.Close()
	tc := rec.AcquireCtx()
	defer rec.ReleaseCtx(tc)
	traced := testing.AllocsPerRun(200, func() {
		tc.Reset(rec.NextLocalID())
		root := tc.Begin(nil, trace.LayerRPC, trace.OpRequest)
		l, err := w.srv.ReadView(tc, root, c, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		l.Release()
		tc.End(root)
		tc.Finish()
	})

	if traced > base {
		t.Fatalf("traced cached read allocates %v/op vs %v/op untraced — tracing must be alloc-free on the fast path", traced, base)
	}
}

// TestCachedReadAllocFreeWithCollector extends the gate to the
// telemetry tentpole: a running collector (sampling the registry every
// millisecond, with exemplars enabled on a latency histogram) must not
// put allocations back on the warm read path — the hot path only
// touches atomics, and exemplar recording is a seqlock slot write.
func TestCachedReadAllocFreeWithCollector(t *testing.T) {
	w := newWorld(t, 2, Options{})
	payload := bytes.Repeat([]byte{0x42}, 4<<10)
	c := mustCreate(t, w.srv, payload, 2)
	if !bytes.Equal(mustRead(t, w.srv, c), payload) {
		t.Fatal("warm-up read returned wrong bytes")
	}

	// Baseline: the warm read alone (it copies the payload out, so it is
	// not absolutely zero — the gate, like the tracing one above, is that
	// telemetry adds nothing on top).
	base := testing.AllocsPerRun(500, func() {
		if _, err := w.srv.Read(c); err != nil {
			t.Fatal(err)
		}
	})

	// Long interval: the collector is live (Start'ed, registered,
	// subscribable) but sampling is driven by explicit Ticks bracketing
	// the measured loop — AllocsPerRun counts process-global mallocs, so
	// a concurrently ticking goroutine would bill its own (deliberately
	// off-hot-path) snapshot allocations to the read loop.
	coll := stats.NewCollector(w.srv.Metrics(), time.Hour, 16)
	coll.Start()
	defer coll.Close()
	// The exemplar-enabled histogram the RPC layer would own, observed
	// from the loop the way rpc.metrics does, with a traced ID each run.
	lat := w.srv.Metrics().HistogramExemplars("rpc.read.latency_ns", stats.DefaultLatencyBounds, 0)

	at := time.Unix(1_700_000_000, 0)
	coll.Tick(at)
	withTelemetry := testing.AllocsPerRun(500, func() {
		if _, err := w.srv.Read(c); err != nil {
			t.Fatal(err)
		}
		lat.ObserveTraced(12345, 0xabcdef)
	})
	coll.Tick(at.Add(time.Second))
	if withTelemetry > base {
		t.Fatalf("cached read allocates %v/op with the collector + exemplars vs %v/op bare — the telemetry path must stay off the hot path", withTelemetry, base)
	}
	// The bracketing ticks really sampled the loop's traffic.
	u, ok := coll.Latest()
	if !ok || u.Histograms["rpc.read.latency_ns"].Count == 0 {
		t.Fatalf("collector window missed the measured reads: %+v", u)
	}
}

// BenchmarkTracedCachedRead reports the cached-read fast path with
// tracing active end to end (span arena + flight-recorder commit), for
// eyeballing against BenchmarkPaperF2Read's warm numbers.
func BenchmarkTracedCachedRead(b *testing.B) {
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			b.Fatal(err)
		}
		devs[i] = mem
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		b.Fatal(err)
	}
	if err := Format(set, 500); err != nil {
		b.Fatal(err)
	}
	srv, err := New(set, Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Sync() //nolint:errcheck // bench cleanup
	payload := bytes.Repeat([]byte{0x42}, 4<<10)
	c, err := srv.Create(payload, 2)
	if err != nil {
		b.Fatal(err)
	}
	rec := trace.NewRecorder(trace.WithCapacity(64, 8))
	defer rec.Close()
	tc := rec.AcquireCtx()
	defer rec.ReleaseCtx(tc)

	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.Reset(rec.NextLocalID())
		root := tc.Begin(nil, trace.LayerRPC, trace.OpRequest)
		l, err := srv.ReadView(tc, root, c, 0, -1)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
		tc.End(root)
		tc.Finish()
	}
}
