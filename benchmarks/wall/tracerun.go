package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"bulletfs/internal/alloc"
	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/cache"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
	"bulletfs/internal/rpc"
	"bulletfs/internal/scrub"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// stack is the bulletd stack assembled in-process, wired the way
// cmd/bulletd/main.go wires it with default flags: engine over FileDisk
// replicas, always-on flight recorder, scrubber, telemetry collector, mux,
// service and a TCPServer on loopback. With a tracer, the harness's span
// decorators sit at the layer boundaries.
type stack struct {
	set       *disk.ReplicaSet
	engine    *bullet.Server
	recorder  *trace.Recorder
	scrubber  *scrub.Scrubber
	collector *stats.Collector
	srv       *rpc.TCPServer
	addr      string
}

func startStack(dir string, sp *spec, t *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var devs []disk.Device
	for _, p := range imagePaths(dir) {
		fd, err := disk.CreateFile(p, 512, int64(sp.sizeMB)<<20/512)
		if err != nil {
			return nil, err
		}
		if t != nil {
			devs = append(devs, tracedDevice{Device: fd, t: t})
		} else {
			devs = append(devs, fd)
		}
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return nil, err
	}
	if err := bullet.Format(set, sp.inodes); err != nil {
		return nil, err
	}
	s := &stack{set: set}
	s.engine, err = bullet.New(set, bullet.Options{Port: bulletPort, CacheBytes: cacheMB << 20})
	if err != nil {
		return nil, err
	}
	s.recorder = trace.NewRecorder(trace.WithSlowThreshold(50*time.Millisecond), trace.WithSlowLog(os.Stderr))
	s.scrubber = scrub.New(s.engine, scrub.Config{Interval: time.Hour, BytesPerSec: scrub.DefaultBytesPerSec})
	s.scrubber.AttachMetrics(s.engine.Metrics())
	s.scrubber.Start()
	s.collector = stats.NewCollector(s.engine.Metrics(), stats.DefaultInterval, stats.DefaultRingSize)
	s.collector.Start()

	mux := rpc.NewMux(0)
	mux.AttachMetrics(s.engine.Metrics(), bulletsvc.CommandName)
	mux.AttachRecorder(s.recorder)
	svc := bulletsvc.New(s.engine)
	svc.AttachRecorder(s.recorder)
	svc.AttachScrubber(s.scrubber)
	svc.AttachCollector(s.collector)
	if t != nil {
		mux.RegisterStream(s.engine.Port(), tracedHandler(svc.HandleStream, t))
	} else {
		svc.Register(mux)
	}
	s.srv = rpc.NewTCPServer(mux)
	if s.addr, err = s.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	return s, nil
}

// stop shuts the stack down in bulletd's order.
func (s *stack) stop() error {
	s.collector.Close()
	err := s.srv.Close()
	s.scrubber.Stop()
	s.engine.Sync()
	err = errors.Join(err, s.engine.Close())
	s.recorder.Close()
	return err
}

// traceResult is one in-process run of a workload's fixed op sequence.
type traceResult struct {
	ops      int
	elapsed  time.Duration
	spans    []span
	delta    statsDelta
	mallocs  uint64 // runtime.MemStats deltas over the ops
	allocB   uint64
	gcCycles uint32
	fragPct  float64
	bootScan time.Duration
	tally    tally
}

// runInProcess populates an in-process stack, runs the workload's first
// traceOps ops on one connection, and (traced only) times the start-up
// scan of the images it leaves behind.
func runInProcess(dir string, sp *spec, seed int64, traced bool) (*traceResult, error) {
	var t *tracer
	if traced {
		t = newTracer()
	}
	s, err := startStack(dir, sp, t)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := dial(s.addr)
	defer tr.Close() //nolint:errcheck // connections only
	var admin *client.Client
	var cl bulletClient
	if traced {
		admin = client.New(tracedTransport{inner: tr, t: t})
		cl = tracedClient{inner: admin, t: t, drain: s.set.Drain}
	} else {
		admin = client.New(tr)
		cl = admin
	}
	e := &env{sp: sp, seed: seed, sizes: sp.population(seed), admin: admin, cls: []bulletClient{cl}}
	if err := e.populate(); err != nil {
		s.stop() //nolint:errcheck // the populate error is the one to report
		return nil, fmt.Errorf("populating in-process %s: %w", sp.name, err)
	}
	s.engine.Sync()

	res := &traceResult{ops: sp.traceOps}
	bx := &bulletExec{cl: cl, st: e.st, seed: seed, pfactor: sp.pfactor}
	gen := sp.gen(seed, e.sizes, 0, 1)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	before := s.engine.Metrics().Snapshot()
	if traced {
		t.on.Store(true)
	}
	start := time.Now()
	for i := 0; i < sp.traceOps && res.tally.failed < maxFailures; i++ {
		_, err := bx.do(gen())
		res.tally.note(err)
	}
	res.elapsed = time.Since(start)
	s.engine.Sync() // background write-through ends inside the trace
	if traced {
		t.on.Store(false)
		t.mu.Lock()
		res.spans = t.spans
		t.mu.Unlock()
	}
	runtime.ReadMemStats(&m1)
	res.delta = delta(before, s.engine.Metrics().Snapshot())
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocB = m1.TotalAlloc - m0.TotalAlloc
	res.gcCycles = m1.NumGC - m0.NumGC
	res.fragPct = 100 * s.engine.DiskStats().Fragmentation()
	if err := s.stop(); err != nil {
		return nil, err
	}
	if traced {
		if res.bootScan, err = bootScan(dir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// bootScan times layout.Load — reading the whole inode table and checking
// it, the start-up scan of paper §3 — on the images in dir.
func bootScan(dir string) (time.Duration, error) {
	var devs []disk.Device
	for _, p := range imagePaths(dir) {
		fd, err := disk.OpenFile(p, 512)
		if err != nil {
			return 0, err
		}
		defer fd.Close()
		devs = append(devs, fd)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, _, err := layout.Load(set); err != nil {
		return 0, fmt.Errorf("boot scan: %w", err)
	}
	return time.Since(start), nil
}

// unitCosts are the engine's building blocks timed directly, each through
// its package's public functions; bullet.residual_us_per_op is the engine
// self time these (times their per-op counts) do not explain.
type unitCosts struct {
	verifyNS, pinReleaseNS, allocFreeNS float64
	insertUSPerMiB, writeInodeUS        float64
}

// timeLoop runs fn for about 40 ms and returns nanoseconds per call.
func timeLoop(fn func()) float64 {
	const budget = 40 * time.Millisecond
	n := 0
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < 64; i++ {
			fn()
		}
		n += 64
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func measureUnitCosts(dir string) (unitCosts, error) {
	var u unitCosts
	r, err := capability.NewRandom()
	if err != nil {
		return u, err
	}
	owner := capability.Owner(bulletPort, 7, r)
	var verifyErr error
	u.verifyNS = timeLoop(func() {
		if _, err := capability.Verify(owner, r); err != nil {
			verifyErr = err
		}
	})
	if verifyErr != nil {
		return u, verifyErr
	}

	c, err := cache.New(8<<20, 64)
	if err != nil {
		return u, err
	}
	idx, _, err := c.Insert(1, make([]byte, 4<<10))
	if err != nil {
		return u, err
	}
	var pinErr error
	u.pinReleaseNS = timeLoop(func() {
		v, err := c.Pin(idx, 1)
		if err != nil {
			pinErr = err
			return
		}
		v.Release()
	})
	if pinErr != nil {
		return u, pinErr
	}
	mib := make([]byte, 1<<20)
	inode := uint32(2)
	var insErr error
	u.insertUSPerMiB = timeLoop(func() { // the 8 MiB arena is full after 7: every later insert evicts
		if _, _, err := c.Insert(inode, mib); err != nil {
			insErr = err
		}
		inode++
	}) / 1e3
	if insErr != nil {
		return u, insErr
	}

	a, err := alloc.New(1 << 20)
	if err != nil {
		return u, err
	}
	var allocErr error
	u.allocFreeNS = timeLoop(func() {
		b, err := a.Alloc(8)
		if err == nil {
			err = a.Free(b, 8)
		}
		if err != nil {
			allocErr = err
		}
	})
	if allocErr != nil {
		return u, allocErr
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return u, err
	}
	img := filepath.Join(dir, "unit.img")
	defer os.Remove(img)
	fd, err := disk.CreateFile(img, 512, 8<<20/512)
	if err != nil {
		return u, err
	}
	defer fd.Close()
	if err := layout.Format(fd, layout.FormatConfig{Inodes: 1000}); err != nil {
		return u, err
	}
	table, _, err := layout.Load(fd)
	if err != nil {
		return u, err
	}
	n, err := table.Allocate(r, 0, 4<<10)
	if err != nil {
		return u, err
	}
	var wErr error
	u.writeInodeUS = timeLoop(func() {
		if err := table.WriteInode(fd, n); err != nil {
			wErr = err
		}
	}) / 1e3
	return u, wErr
}
