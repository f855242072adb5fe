package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
)

const (
	workers = 2 // nproc of the machine class this runs on; one request in flight per worker
	// sliceLen was chosen by the noise study in ../README.md: the shorter
	// the slice, the better a pair sits inside one scheduling regime, and
	// 50 ms still holds some 25 of the slowest ops (1 MiB reads) per worker.
	sliceLen      = 50 * time.Millisecond
	warmSlices    = 80 // the fixed 4 s warm-up, alternating like the measured phase
	callTimeout   = 30 * time.Second
	fullCheckMask = 15 // one read in 16 checks a full CRC32C
	maxFailures   = 100
	keptFiles     = 256
)

// fileState is what the harness remembers about the live files: the
// capability and whole-file CRC32C of every population slot. Workers
// write only slots they own.
type fileState struct {
	caps []capability.Capability
	crcs []uint32
}

// bulletExec executes ops against a Bullet server and verifies replies.
type bulletExec struct {
	cl      bulletClient
	st      *fileState
	seed    int64
	pfactor int
	buf     []byte // contents of the file being created
	scratch []byte // regenerated range for the full check
	reads   int
}

func (e *bulletExec) content(key uint64, size int) []byte {
	e.buf = sized(e.buf, size)
	fill(e.buf, key, 0)
	return e.buf
}

// do runs one op and returns the payload bytes it moved.
func (e *bulletExec) do(o op) (int64, error) {
	key := fileKey(e.seed, o.slot, o.version)
	switch o.kind {
	case opRead:
		body, err := e.cl.Read(e.st.caps[o.slot])
		if err != nil {
			return 0, err
		}
		if len(body) != o.size || !checkEnds(body, key, 0) {
			return 0, fmt.Errorf("slot %d v%d: read %d bytes (want %d) or stamp mismatch", o.slot, o.version, len(body), o.size)
		}
		if e.reads++; e.reads&fullCheckMask == 0 && crc32.Checksum(body, castagnoli) != e.st.crcs[o.slot] {
			return 0, fmt.Errorf("slot %d v%d: CRC32C mismatch over %d bytes", o.slot, o.version, len(body))
		}
		return int64(len(body)), nil
	case opReadRange:
		body, err := e.cl.ReadRange(e.st.caps[o.slot], o.off, o.n)
		if err != nil {
			return 0, err
		}
		if int64(len(body)) != o.n || !checkEnds(body, key, o.off) {
			return 0, fmt.Errorf("slot %d v%d: range [%d,+%d) returned %d bytes or stamp mismatch", o.slot, o.version, o.off, o.n, len(body))
		}
		if e.reads++; e.reads&fullCheckMask == 0 {
			var want uint32
			want, e.scratch = rangeCRC(e.scratch, key, o.off, o.n)
			if crc32.Checksum(body, castagnoli) != want {
				return 0, fmt.Errorf("slot %d v%d: CRC32C mismatch over range [%d,+%d)", o.slot, o.version, o.off, o.n)
			}
		}
		return int64(len(body)), nil
	case opChurn:
		data := e.content(key, o.size)
		c, err := e.cl.Create(bulletPort, data, e.pfactor)
		if err != nil {
			return 0, err
		}
		return int64(o.size), e.cl.Delete(c)
	case opReplace:
		data := e.content(key, o.size)
		c, err := e.cl.Create(bulletPort, data, e.pfactor)
		if err != nil {
			return 0, err
		}
		old := e.st.caps[o.slot]
		e.st.caps[o.slot], e.st.crcs[o.slot] = c, crc32.Checksum(data, castagnoli)
		return int64(o.size), e.cl.Delete(old)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// nullExec executes each op's null twin: the same request and reply
// payload sizes, and the same client-side content generation, with no
// file server behind them.
type nullExec struct {
	conn *nullConn
	seed int64
	buf  []byte
}

func (e *nullExec) do(o op) (int64, error) {
	switch o.kind {
	case opRead:
		return int64(o.size), e.conn.roundTrip(nil, o.size)
	case opReadRange:
		return o.n, e.conn.roundTrip(nil, int(o.n))
	case opChurn, opReplace:
		e.buf = sized(e.buf, o.size)
		fill(e.buf, fileKey(e.seed, o.slot, o.version), 0)
		if err := e.conn.roundTrip(e.buf, 0); err != nil {
			return 0, err
		}
		return int64(o.size), e.conn.roundTrip(nil, 0)
	}
	return 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// tally counts what the contract calls attempted and failed operations.
type tally struct {
	attempted, failed int64
	firstErr          error
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// env is one set-up server with its population and client connections.
type env struct {
	sp       *spec
	seed     int64
	dir      string
	bd       *child // nil when the stack runs in-process
	trs      []*rpc.TCPTransport
	admin    *client.Client // set-up, STATS and the restart check
	cls      []bulletClient // one per worker; the same one twice when shared
	sizes    []int
	st       *fileState
	sentinel capability.Capability // a live file to address STATS with
}

func dial(addr string) *rpc.TCPTransport {
	return rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{bulletPort: addr}), callTimeout)
}

func connect(addr string) (*rpc.TCPTransport, *client.Client) {
	tr := dial(addr)
	return tr, client.New(tr)
}

// setUp starts bulletd on fresh images in dir and brings it to the state
// the measured phase starts from: populated, synced, warm.
func setUp(bin, dir string, sp *spec, seed int64) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bd, err := startBulletd(bin, dir, sp, true)
	if err != nil {
		return nil, err
	}
	e := &env{sp: sp, seed: seed, dir: dir, bd: bd, sizes: sp.population(seed)}
	for w := 0; w < workers; w++ {
		if sp.shared && w > 0 {
			e.cls = append(e.cls, e.cls[0])
			continue
		}
		tr, cl := connect(bd.addr)
		e.trs = append(e.trs, tr)
		e.cls = append(e.cls, cl)
		if w == 0 {
			e.admin = cl
		}
	}
	if err := e.populate(); err != nil {
		e.close()
		return nil, fmt.Errorf("populating %s: %w", sp.name, err)
	}
	return e, nil
}

func (e *env) populate() error {
	cl := e.admin
	var err error
	if e.sentinel, err = cl.Create(bulletPort, []byte("wall benchmark sentinel"), replicas); err != nil {
		return err
	}
	e.st = &fileState{caps: make([]capability.Capability, len(e.sizes)), crcs: make([]uint32, len(e.sizes))}
	x := &bulletExec{cl: cl, st: e.st, seed: e.seed, pfactor: replicas}
	for slot, size := range e.sizes {
		data := x.content(fileKey(e.seed, slot, 0), size)
		if e.st.caps[slot], err = cl.Create(bulletPort, data, replicas); err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
		e.st.crcs[slot] = crc32.Checksum(data, castagnoli)
	}
	if err := cl.Sync(bulletPort); err != nil {
		return err
	}
	x.reads = fullCheckMask // so the first warm read is a full check
	for _, slot := range e.sp.warm(len(e.sizes)) {
		if _, err := x.do(op{kind: opRead, slot: slot, size: e.sizes[slot]}); err != nil {
			return fmt.Errorf("warm read: %w", err)
		}
	}
	return nil
}

func (e *env) stats() (stats.Snapshot, error) { return e.admin.Stats(e.sentinel) }

// close stops bulletd and removes its images.
func (e *env) close() error {
	for _, tr := range e.trs {
		tr.Close() //nolint:errcheck // connections only
	}
	err := e.bd.stop()
	return errors.Join(err, os.RemoveAll(e.dir))
}

// phaseResult is everything the measured phase observed.
type phaseResult struct {
	pairs      int
	kept       int // pairs no steal time fell into (all of them, if those are too few)
	logs       []*sliceLog
	cpu        []int64 // per slice: on-CPU ns of the server that slice drives
	setUpS     float64 // set-up time plus the warm-up: the setup_s metric
	warmUp     time.Duration
	opsVsNull  []float64
	cpuVsNull  []float64
	tally      tally
	before     stats.Snapshot
	after      stats.Snapshot
	rssMB      float64
	slowTraces int64
}

// measure runs the warm-up and then pairs of slices, closed loop, one op
// in flight per worker, every worker switching server on the same
// wall-clock slice index. One extra slice after the last pair lets the
// last null slice be closed like every other.
func measure(e *env, null *child, pairs int) (*phaseResult, error) {
	total := warmSlices + 2*pairs
	res := &phaseResult{pairs: pairs}
	var err error
	if res.before, err = e.stats(); err != nil {
		return nil, err
	}

	nullConns := make([]*nullConn, workers)
	for w := range nullConns {
		if e.sp.shared && w > 0 {
			nullConns[w] = nullConns[0]
			continue
		}
		if nullConns[w], err = dialNull(null.addr); err != nil {
			return nil, err
		}
		defer nullConns[w].close()
	}

	tallies := make([]tally, workers)
	res.logs = make([]*sliceLog, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		res.logs[w] = newSliceLog(total + 1)
		bx := &bulletExec{cl: e.cls[w], st: e.st, seed: e.seed, pfactor: e.sp.pfactor}
		nx := &nullExec{conn: nullConns[w], seed: e.seed}
		gen := e.sp.gen(e.seed, e.sizes, w, workers)
		wg.Add(1)
		go func(log *sliceLog, tl *tally) {
			defer wg.Done()
			var rep replayer
			now := time.Now()
			for tl.failed < maxFailures {
				start := sliceOf(t0, now, sliceLen)
				if start > total {
					return
				}
				var o op
				var n int64
				var err error
				if isBullet(start) {
					o = gen()
					n, err = bx.do(o)
				} else {
					var ok bool
					if o, ok = rep.next(start); !ok { // no Bullet slice has completed anything yet
						time.Sleep(time.Millisecond)
						now = time.Now()
						continue
					}
					n, err = nx.do(o)
				}
				end := time.Now()
				tl.note(err)
				if err == nil {
					endSlice := sliceOf(t0, end, sliceLen)
					log.record(start, endSlice, n, end.Sub(now))
					if isBullet(start) && endSlice == start {
						rep.completed(o)
					}
				}
				now = end
			}
		}(res.logs[w], &tallies[w])
	}

	// Each server's on-CPU time is read in the middle of the *other*
	// server's slices, when it is idle: a late timer then costs nothing,
	// and the op that straddles a boundary, like write-through that
	// outlives its reply, is charged to the slice that started it.
	// The machine's steal time is read at the same moments.
	mid := make([]int64, total+1)
	steal := make([]int64, total+1)
	var cpuErr error
	for k := 0; k <= total; k++ {
		time.Sleep(time.Until(t0.Add(time.Duration(k)*sliceLen + sliceLen/2)))
		if k == warmSlices {
			res.warmUp = time.Since(t0) - sliceLen/2
		}
		pid := e.bd.pid()
		if isBullet(k) {
			pid = null.pid()
		}
		var err, serr error
		mid[k], err = cpuNanos(pid)
		steal[k], serr = stolenJiffies()
		cpuErr = errors.Join(cpuErr, err, serr)
	}
	wg.Wait()
	if cpuErr != nil {
		return nil, fmt.Errorf("sampling server CPU and steal time: %w", cpuErr)
	}
	for _, tl := range tallies {
		res.tally.add(tl)
	}
	res.cpu = make([]int64, total)
	for k := 1; k < total; k++ {
		res.cpu[k] = mid[k+1] - mid[k-1]
	}
	started := sumSlices(res.logs, func(l *sliceLog) []int64 { return l.started })
	// A pair during which the hypervisor took a vCPU away measures the
	// neighbours, not the servers: it is left out, unless that leaves too
	// few pairs to take a median of.
	keep := make([]bool, pairs)
	for i := range keep {
		b := warmSlices + 2*i
		if keep[i] = steal[b+2] == steal[b-1]; keep[i] {
			res.kept++
		}
	}
	if res.kept < pairs/4 {
		keep, res.kept = nil, pairs
	}
	res.opsVsNull = pairRatios(rates(res.logs, func(l *sliceLog) []int64 { return l.ops }), warmSlices, pairs, keep)
	res.cpuVsNull = pairRatios(perOp(res.cpu, started), warmSlices, pairs, keep)

	if res.after, err = e.stats(); err != nil {
		return nil, err
	}
	if res.rssMB, err = peakRSSMB(e.bd.pid()); err != nil {
		return nil, err
	}
	res.slowTraces = e.bd.slowTraces.Load()
	return res, nil
}

// absolute is the per-layer client.* family: throughput as the median over
// slices of each slice's own rate, latency over every counted Bullet op
// of the measured phase.
type absolute struct {
	opsPerS, mbPerS, nullOpsPerS float64
	p50, p95, p99                float64 // µs
	samples                      int     // latencies behind the percentiles
}

func (r *phaseResult) absolute() absolute {
	ops := rates(r.logs, func(l *sliceLog) []int64 { return l.ops })
	byt := rates(r.logs, func(l *sliceLog) []int64 { return l.bytes })
	var o, m, n, lat []float64
	for i := 0; i < r.pairs; i++ {
		b := warmSlices + 2*i
		o = append(o, ops[b])
		m = append(m, byt[b]/1e6)
		n = append(n, ops[b+1])
	}
	for _, l := range r.logs {
		for i, ns := range l.lat {
			if int(l.latSlice[i]) >= warmSlices {
				lat = append(lat, float64(ns)/1e3)
			}
		}
	}
	sort.Float64s(lat)
	return absolute{
		opsPerS: median(o), mbPerS: median(m), nullOpsPerS: median(n),
		p50: sortedQuantile(lat, 0.50), p95: sortedQuantile(lat, 0.95), p99: sortedQuantile(lat, 0.99),
		samples: len(lat),
	}
}

// restartCheck leaves keptFiles acknowledged P-FACTOR-2 files, stops
// bulletd, starts it again on the same images without -format and reads
// every file back byte-identical. It returns how long the restarted
// server took to announce itself. The page cache survives a process
// restart, so this checks the start-up scan and the image format, not
// power-cut durability.
func restartCheck(bin string, e *env, tl *tally) (time.Duration, error) {
	cl := e.admin
	caps := make([]capability.Capability, keptFiles)
	x := &bulletExec{seed: e.seed}
	for i := range caps {
		var err error
		caps[i], err = cl.Create(bulletPort, x.content(fileKey(e.seed, keptSlot+i, 0), 4<<10), replicas)
		tl.note(err)
		if err != nil {
			return 0, fmt.Errorf("restart check: create %d: %w", i, err)
		}
	}
	for _, tr := range e.trs {
		tr.Close() //nolint:errcheck // connections only
	}
	if err := e.bd.stop(); err != nil {
		return 0, fmt.Errorf("restart check: %w", err)
	}
	t := time.Now()
	bd, err := startBulletd(bin, e.dir, e.sp, false)
	if err != nil {
		return 0, fmt.Errorf("restart check: %w", err)
	}
	boot := time.Since(t)
	e.bd = bd
	tr, cl := connect(bd.addr)
	e.trs, e.admin = []*rpc.TCPTransport{tr}, cl
	var lost int
	for i, c := range caps {
		body, err := cl.Read(c)
		if err == nil && !bytes.Equal(body, x.content(fileKey(e.seed, keptSlot+i, 0), 4<<10)) {
			err = fmt.Errorf("restart check: file %d differs after restart", i)
		}
		tl.note(err)
		if err != nil {
			lost++
		}
	}
	if lost > 0 {
		return boot, fmt.Errorf("restart check: %d of %d acknowledged files lost or changed: %w", lost, keptFiles, tl.firstErr)
	}
	return boot, nil
}
