// Command bulletd runs a Bullet file server over TCP with file-backed
// replica disks.
//
// First run (format two 64 MB replicas and serve):
//
//	bulletd -disks /var/bullet/d0.img,/var/bullet/d1.img -format -size 64 -listen :7001
//
// Subsequent runs reuse the images:
//
//	bulletd -disks /var/bullet/d0.img,/var/bullet/d1.img -listen :7001
//
// The server's capability port is derived from -port (a service name), so
// clients can reconstruct it; capabilities survive restarts.
//
// bulletd ships one configuration: images use disk.SectorSize blocks,
// requests slower than 50 ms are logged, the scrubber makes one pass an
// hour at scrub.DefaultBytesPerSec, and the telemetry collector samples
// every stats.DefaultInterval into stats.DefaultRingSize-deep rings.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/scrub"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// The fixed configuration: see the package doc.
const (
	slowThreshold = 50 * time.Millisecond
	scrubInterval = time.Hour
)

// httpGrace bounds the graceful drain of the observability endpoint on
// shutdown: in-flight scrapes get this long to finish before their
// connections are closed hard.
const httpGrace = 5 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bulletd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		disks    = flag.String("disks", "", "comma-separated replica image paths (required)")
		format   = flag.Bool("format", false, "create/format the images before serving")
		sizeMB   = flag.Int64("size", 64, "image size in MB when formatting")
		inodes   = flag.Int("inodes", 10000, "inode table capacity when formatting")
		listen   = flag.String("listen", ":7001", "TCP listen address")
		port     = flag.String("port", "bullet", "service name the capability port derives from")
		cacheMB  = flag.Int64("cache", 64, "RAM file cache size in MB")
		httpAddr = flag.String("http", "", "expvar-style HTTP address serving GET /debug/stats and /debug/traces (optional, e.g. :7002)")
		maxInFl  = flag.Int("max-inflight", 0, "admission limit on concurrent file operations; past it requests are shed with StatusBusy (0 disables)")
		gcWindow = flag.Duration("group-commit", 0, "group-commit flush window: concurrent creates batch their replica sync round-trips for up to this long (0 disables; try 500us-2ms)")
	)
	flag.Parse()
	if *disks == "" {
		return fmt.Errorf("-disks is required")
	}
	// Catch SIGTERM before the address is announced: a supervisor that
	// stops the server the moment it reads "serving on" must get the
	// drain below, not the default kill.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	paths := strings.Split(*disks, ",")
	devs := make([]disk.Device, 0, len(paths))
	for _, p := range paths {
		p = strings.TrimSpace(p)
		var dev disk.Device
		var err error
		if *format {
			dev, err = disk.CreateFile(p, disk.SectorSize, *sizeMB<<20/disk.SectorSize)
		} else {
			dev, err = disk.OpenFile(p, disk.SectorSize)
		}
		if err != nil {
			return err
		}
		devs = append(devs, dev)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return err
	}
	if *format {
		if err := bullet.Format(set, *inodes); err != nil {
			return err
		}
		fmt.Printf("formatted %d replicas, %d inodes, %d MB each\n", len(paths), *inodes, *sizeMB)
	}

	engine, err := bullet.New(set, bullet.Options{
		Port:              capability.PortFromString(*port),
		CacheBytes:        *cacheMB << 20,
		GroupCommitWindow: *gcWindow,
	})
	if err != nil {
		return err
	}
	defer engine.Close() //nolint:errcheck // drained below

	// The flight recorder is always on: every request is traced into a
	// fixed-memory ring; requests over slowThreshold also go to their own
	// ring and to stderr as one-line JSON.
	recorder := trace.NewRecorder(
		trace.WithSlowThreshold(slowThreshold),
		trace.WithSlowLog(os.Stderr),
	)
	defer recorder.Close()

	// Background integrity scrubbing: walk all files, verify every replica
	// copy against its checksum, repair divergence. Rate-limited so it is
	// invisible next to real traffic.
	scrubber := scrub.New(engine, scrub.Config{Interval: scrubInterval, BytesPerSec: scrub.DefaultBytesPerSec})
	scrubber.AttachMetrics(engine.Metrics())
	scrubber.Start()
	defer scrubber.Stop()

	// The telemetry collector samples every metric on a fixed interval
	// into fixed-size rings, deriving per-window rates and tail latencies;
	// the WATCH RPC and /debug/telemetry stream its updates.
	collector := stats.NewCollector(engine.Metrics(), stats.DefaultInterval, stats.DefaultRingSize)
	collector.Start()
	defer collector.Close()

	mux := rpc.NewMux(0)
	mux.AttachMetrics(engine.Metrics(), bulletsvc.CommandName)
	mux.AttachRecorder(recorder)
	svc := bulletsvc.New(engine)
	svc.AttachRecorder(recorder)
	svc.AttachScrubber(scrubber)
	svc.AttachCollector(collector)
	if *maxInFl > 0 {
		adm := bulletsvc.NewAdmission(*maxInFl)
		adm.AttachMetrics(engine.Metrics())
		svc.AttachAdmission(adm)
	}
	svc.Register(mux)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	fmt.Printf("bulletd serving on %s\n", addr)

	// Optional HTTP observability endpoint. Unauthenticated like expvar;
	// bind it to a loopback or otherwise protected address.
	var httpWG sync.WaitGroup
	var httpSrv *http.Server
	if *httpAddr != "" {
		hmux := bulletsvc.NewDebugMux(bulletsvc.DebugMuxConfig{
			Registry:  engine.Metrics(),
			Recorder:  recorder,
			Collector: collector,
			Pprof:     true,
		})
		lis, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("http listen %s: %w", *httpAddr, err)
		}
		httpSrv = &http.Server{Handler: hmux, ReadHeaderTimeout: 5 * time.Second}
		httpWG.Add(1)
		go func() {
			defer httpWG.Done()
			if err := httpSrv.Serve(lis); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "bulletd: http:", err)
			}
		}()
		fmt.Printf("stats on http://%s/debug/stats, traces on /debug/traces, telemetry on /debug/telemetry, OpenMetrics on /metrics, pprof on /debug/pprof/\n", lis.Addr())
	}
	fmt.Printf("capability port: %x (service name %q)\n", engine.Port(), *port)
	fmt.Printf("files: %d live, max file size %d bytes\n", engine.Live(), engine.MaxFileSize())

	<-sig
	fmt.Println("shutting down")
	if httpSrv != nil {
		// Graceful drain: let in-flight scrapes and debug requests finish
		// under a grace window instead of snapping their connections; only
		// if the window expires is the listener closed hard. A second
		// SIGTERM during the window is the operator's "now means now".
		ctx, cancel := context.WithTimeout(context.Background(), httpGrace)
		done := make(chan error, 1)
		go func() { done <- httpSrv.Shutdown(ctx) }()
		select {
		case <-done:
		case <-sig:
			cancel()
		}
		cancel()
		httpSrv.Close() //nolint:errcheck // idempotent after Shutdown; hard-stops stragglers
		httpWG.Wait()
	}
	// Close the collector before the RPC server: closing unblocks every
	// WATCH stream (their subscription channels close), so the server's
	// connection drain does not wait on open-ended watchers.
	collector.Close()
	if err := srv.Close(); err != nil {
		return err
	}
	scrubber.Stop()
	engine.Sync()
	return engine.Close()
}
