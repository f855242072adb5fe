package bulletfs_test

import (
	"errors"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
)

// watchWorld is a Bullet server with the telemetry collector attached,
// served over real TCP — WATCH is a long-lived multi-frame stream, and
// subscriber disconnect behaviour only exists on a real socket.
type watchWorld struct {
	engine    *bullet.Server
	collector *stats.Collector
	addr      string
}

func newWatchWorld(t *testing.T, interval time.Duration) *watchWorld {
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
	engine, err := bullet.New(set, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(func() { engine.Close() }) //nolint:errcheck // test cleanup

	collector := stats.NewCollector(engine.Metrics(), interval, 32)
	collector.Start()
	t.Cleanup(collector.Close)

	mux := rpc.NewMux(0)
	mux.AttachMetrics(engine.Metrics(), bulletsvc.CommandName)
	svc := bulletsvc.New(engine)
	svc.AttachCollector(collector)
	svc.Register(mux)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
	return &watchWorld{engine: engine, collector: collector, addr: addr}
}

// dial returns a WATCH-capable client: no transaction deadline, so the
// stream can run as long as the test wants.
func (w *watchWorld) dial(t *testing.T) *client.Client {
	t.Helper()
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{w.engine.Port(): w.addr}), 0)
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
	return client.New(tr, client.WithTraceIDs())
}

func TestWatchStreamsUpdatesOverWire(t *testing.T) {
	w := newWatchWorld(t, 20*time.Millisecond)
	cl := w.dial(t)
	cp, err := cl.Create(w.engine.Port(), []byte("watched"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Background traffic so the windows have movement.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rcl := w.dial(t)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rcl.Read(cp); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	defer func() { close(stop); <-done }()

	var updates []stats.Update
	err = cl.Watch(cp, 3, func(u stats.Update) error {
		updates = append(updates, u)
		return nil
	})
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if len(updates) != 3 {
		t.Fatalf("got %d updates, want 3", len(updates))
	}
	for i := 1; i < len(updates); i++ {
		if updates[i].Seq != updates[i-1].Seq+1 {
			t.Fatalf("seq gap: %d then %d", updates[i-1].Seq, updates[i].Seq)
		}
	}
	last := updates[len(updates)-1]
	if last.Counters["rpc.read.requests"].Total == 0 {
		t.Fatal("watch updates never saw the read traffic")
	}
	if _, ok := last.Histograms["rpc.read.latency_ns"]; !ok {
		t.Fatal("watch update missing the read latency window")
	}
	if last.IntervalNS <= 0 {
		t.Fatalf("interval_ns = %d, want > 0", last.IntervalNS)
	}
}

func TestWatchRequiresReadRight(t *testing.T) {
	w := newWatchWorld(t, 10*time.Millisecond)
	cl := w.dial(t)
	cp, err := cl.Create(w.engine.Port(), []byte("x"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	weak, err := capability.Restrict(cp, capability.RightDelete)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	err = cl.Watch(weak, 1, func(stats.Update) error { return nil })
	if !errors.Is(err, capability.ErrBadRights) {
		t.Fatalf("Watch without read right: err = %v, want ErrBadRights", err)
	}
}

func TestWatchWithoutCollectorIsBadCommand(t *testing.T) {
	// A service with no collector attached must refuse WATCH outright,
	// like TRACE without a recorder.
	st, cl := newWireStore(t)
	cp, err := cl.Create(st.Port(), []byte("x"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	err = cl.Watch(cp, 1, func(stats.Update) error { return nil })
	if err == nil {
		t.Fatal("Watch succeeded on a server without a collector")
	}
}

func TestWatchSubscriberDisconnectMidStream(t *testing.T) {
	w := newWatchWorld(t, 10*time.Millisecond)
	cl := w.dial(t)
	cp, err := cl.Create(w.engine.Port(), []byte("x"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Unbounded watch, aborted client-side after two updates: the sink
	// error drops the TCP connection, which is how a real watcher dies.
	wantErr := errors.New("enough")
	n := 0
	err = cl.Watch(cp, 0, func(u stats.Update) error {
		n++
		if n >= 2 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("Watch err = %v, want the sink abort", err)
	}

	// The server notices on its next push into the dead socket and tears
	// the subscription down; the collector's watcher count must return to
	// zero (no leaked subscription goroutines).
	deadline := time.After(5 * time.Second)
	for w.collector.Watchers() != 0 {
		select {
		case <-deadline:
			t.Fatalf("server still has %d watchers after client disconnect", w.collector.Watchers())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestWatchEndsCleanlyOnCollectorClose(t *testing.T) {
	w := newWatchWorld(t, 10*time.Millisecond)
	cl := w.dial(t)
	cp, err := cl.Create(w.engine.Port(), []byte("x"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		first := true
		got <- cl.Watch(cp, 0, func(stats.Update) error {
			if first {
				close(started)
				first = false
			}
			return nil
		})
	}()
	select {
	case <-started:
	case err := <-got:
		t.Fatalf("watch ended before first update: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("no first update within 5s")
	}
	w.collector.Close()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("watch after collector close: %v, want clean end", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not end after collector close")
	}
}

// transOnly hides everything but Trans, the shape of a wrapper that
// predates rpc.Caller: the Local under it assembles a streamed reply into
// one frame.
type transOnly struct{ inner rpc.Transport }

func (t transOnly) Trans(port capability.Port, req rpc.Header, payload []byte) (rpc.Header, []byte, error) {
	return t.inner.Trans(port, req, payload)
}

func TestWatchAssembledFallback(t *testing.T) {
	// Over a Trans-only transport the frames arrive concatenated; a
	// bounded watch still decodes them all, and an unbounded one is
	// refused up front.
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
	engine, err := bullet.New(set, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(func() { engine.Close() }) //nolint:errcheck // test cleanup
	collector := stats.NewCollector(engine.Metrics(), 10*time.Millisecond, 32)
	collector.Start()
	t.Cleanup(collector.Close)
	mux := rpc.NewMux(0)
	svc := bulletsvc.New(engine)
	svc.AttachCollector(collector)
	svc.Register(mux)
	cl := client.New(transOnly{rpc.NewLocal(mux)})

	cp, err := cl.Create(engine.Port(), []byte("x"), 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	var n int
	if err := cl.Watch(cp, 2, func(stats.Update) error { n++; return nil }); err != nil {
		t.Fatalf("bounded assembled watch: %v", err)
	}
	if n != 2 {
		t.Fatalf("decoded %d assembled updates, want 2", n)
	}
	if err := cl.Watch(cp, 0, func(stats.Update) error { return nil }); !errors.Is(err, client.ErrWatchUnbounded) {
		t.Fatalf("unbounded assembled watch err = %v, want ErrWatchUnbounded", err)
	}
}
