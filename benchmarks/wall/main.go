// Command wall is the repository's wall-clock benchmark: it builds and
// execs the real cmd/bulletd on two FileDisk images, drives it over
// loopback TCP from two closed-loop workers, and reports throughput and
// server CPU as ratios against a null server measured in alternating
// slices of the same run. See ../README.md for the design and the noise
// study behind it.
//
//	go run -C benchmarks/wall . --workload hot_small_read --seed 1 --seconds 26 --trace 0
//	go run -C benchmarks/wall . --workload hot_small_read --seed 1 --seconds 26 --trace 1
//	go run -C benchmarks/wall . -aa 6
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). Everything else goes to standard error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: units[name]}
}

// runSeconds is run_seconds of BENCHMARK.json: what the pipeline passes as
// --seconds, and what -aa measures with unless told otherwise.
const runSeconds = 26

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: hot_small_read, cold_large_read, create_delete or paper_mix")
		seed         = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds      = flag.Int("seconds", runSeconds, "length of the measured phase")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics against the real bulletd; 1: per-layer metrics (short real run + in-process traced run)")
		nullServer   = flag.Bool("null-server", false, "run as the null reference server (internal)")
		aa           = flag.Int("aa", 0, "run K alternating A/B pairs of full end-to-end runs of this same code, compare their medians and quartile spread with the bounds in BENCHMARK.json, and write the table with a machine fingerprint to .bench_build/wall/aa.json")
	)
	flag.Parse()
	if *nullServer {
		if err := runNullServer(); err != nil {
			logf("wall: null server: %v", err)
			os.Exit(1)
		}
		return
	}
	root, err := findRoot()
	if err != nil {
		logf("wall: %v", err)
		os.Exit(2)
	}
	work := filepath.Join(root, ".bench_build", "wall")
	if *aa > 0 {
		os.Exit(runAA(root, work, *aa, *seed, *seconds))
	}
	sp := specByName(*workloadName)
	if sp == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		logf("wall: need --workload (one of the four), --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	runDir := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			// The servers die with this process (Pdeathsig); their images go here.
			os.RemoveAll(runDir)
			os.Exit(1)
		case <-done:
		}
	}()

	rep, err := run(root, work, runDir, sp, *seed, *seconds, *traceMode == 1)
	close(done)
	os.RemoveAll(runDir)
	if err != nil {
		logf("wall: %s: %v", sp.name, err)
		if rep == nil {
			os.Exit(1)
		}
		rep.Correct = false
	}
	out, jerr := json.Marshal(rep)
	if jerr != nil {
		logf("wall: %v", jerr)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}

// findRoot walks up from the working directory to the checkout that holds
// cmd/bulletd: `go run -C benchmarks/wall .` starts two levels below it.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "bulletd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/bulletd above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// run performs one benchmark run and returns its report. A non-nil error
// with a non-nil report means the run finished but must not be trusted.
func run(root, work, runDir string, sp *spec, seed int64, seconds int, traced bool) (*report, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := buildBulletd(root, work)
	if err != nil {
		return nil, err
	}
	logf("wall: %s seed %d: closed loop, %d workers, one request in flight each, %v slices", sp.name, seed, workers, sliceLen)
	if traced {
		return runPerLayer(bin, work, runDir, sp, seed, seconds)
	}
	return runEndToEnd(bin, runDir, sp, seed, seconds)
}

// realRun sets the real bulletd up, measures pairs and checks the
// workload's guard. A non-nil result with a non-nil error is a run that
// finished but must not be trusted.
func realRun(bin, runDir string, sp *spec, seed int64, pairs int) (res *phaseResult, err error) {
	null, err := startNullServer()
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, null.stop()) }()

	start := time.Now()
	e, err := setUp(bin, filepath.Join(runDir, "server"), sp, seed)
	if err != nil {
		return nil, err
	}
	setUpTime := time.Since(start)
	defer func() { err = errors.Join(err, e.close()) }()
	logf("wall: set-up (exec bulletd, format, populate %d files, sync, warm reads) took %.3f s", len(e.sizes), setUpTime.Seconds())

	if res, err = measure(e, null, pairs); err != nil {
		return nil, err
	}
	res.setUpS = (setUpTime + res.warmUp).Seconds()
	a := res.absolute()
	logf("wall: %d pairs (%d free of steal time, %d usable): bullet %.0f ops/s %.1f MB/s p50 %.1f us p95 %.1f us p99 %.1f us (%d latencies); null %.0f ops/s",
		pairs, res.kept, len(res.opsVsNull), a.opsPerS, a.mbPerS, a.p50, a.p95, a.p99, a.samples, a.nullOpsPerS)
	logf("wall: per-pair ratios, q1 / median / q3: ops_vs_null %.4f / %.4f / %.4f, server_cpu_vs_null %.4f / %.4f / %.4f",
		quantile(res.opsVsNull, 0.25), median(res.opsVsNull), quantile(res.opsVsNull, 0.75),
		quantile(res.cpuVsNull, 0.25), median(res.cpuVsNull), quantile(res.cpuVsNull, 0.75))
	d := delta(res.before, res.after)
	logf("wall: server: cache hit ratio %.4f, %d disk reads, %d disk writes, %d creates, %d deletes, %d slow traces, peak RSS %.1f MB",
		d.hitRatio(), d.diskReads, d.diskWrites, d.creates, d.deletes, res.slowTraces, res.rssMB)
	if tl := res.tally; tl.failed > 0 {
		return res, fmt.Errorf("%d of %d operations failed, first: %w", tl.failed, tl.attempted, tl.firstErr)
	}
	if len(res.opsVsNull) < res.kept*9/10 || len(res.cpuVsNull) < res.kept*9/10 {
		return res, fmt.Errorf("only %d of %d pairs completed an operation on both sides", len(res.opsVsNull), res.kept)
	}
	if err := sp.guard(d); err != nil {
		return res, fmt.Errorf("workload no longer exercises its layer: %w", err)
	}
	if sp.name == "create_delete" {
		boot, err := restartCheck(bin, e, &res.tally)
		if err != nil {
			return res, err
		}
		logf("wall: restart check: %d files byte-identical after SIGTERM + restart without -format (%.3f s to serve again)", keptFiles, boot.Seconds())
	}
	return res, nil
}

func pairsFor(seconds int) int {
	return max(1, int(time.Duration(seconds)*time.Second/(2*sliceLen)))
}

func runEndToEnd(bin, runDir string, sp *spec, seed int64, seconds int) (*report, error) {
	res, err := realRun(bin, runDir, sp, seed, pairsFor(seconds))
	if res == nil {
		return nil, err
	}
	rep := &report{Correct: err == nil, Attempted: res.tally.attempted, Failed: res.tally.failed, Metrics: map[string]metricValue{}}
	rep.set("setup_s", res.setUpS)
	rep.set("ops_vs_null", median(res.opsVsNull))
	rep.set("server_cpu_vs_null", median(res.cpuVsNull))
	rep.set("server_rss_mb", res.rssMB)
	return rep, errors.Join(err, rep.check(endToEnd))
}

// check reports a metric that is missing or not a finite number.
func (r *report) check(defs []metricDef) error {
	var err error
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			err = errors.Join(err, fmt.Errorf("metric %s has no finite value", d.name))
			r.Metrics[d.name] = metricValue{Unit: d.unit}
		}
	}
	return err
}
