package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
)

// runPerLayer is --trace 1. The client.* family and rpc.slow_traces come
// from a paired phase against the real bulletd a quarter as long as an
// end-to-end run's (they are absolute numbers, informational and not
// expected to repeat); everything else from the workload's fixed op
// sequence on an in-process stack, once with the span decorators and once
// without (the difference is the cost of tracing itself).
func runPerLayer(bin, work, runDir string, sp *spec, seed int64, seconds int) (*report, error) {
	res, err := realRun(bin, filepath.Join(runDir, "real"), sp, seed, max(1, pairsFor(seconds)/4))
	if res == nil {
		return nil, err
	}
	tl := res.tally
	rep := &report{Metrics: map[string]metricValue{}}
	a := res.absolute()
	rep.set("client.ops_per_s", a.opsPerS)
	rep.set("client.mb_per_s", a.mbPerS)
	rep.set("client.lat_p50_us", a.p50)
	rep.set("client.lat_p95_us", a.p95)
	rep.set("client.lat_p99_us", a.p99)
	rep.set("client.null_ops_per_s", a.nullOpsPerS)
	rep.set("rpc.slow_traces", float64(res.slowTraces))

	unit, uerr := measureUnitCosts(filepath.Join(runDir, "unit"))
	err = errors.Join(err, uerr)
	// Untraced first: it also takes the process's first-run costs (heap
	// growth, page faults) so they do not pose as tracing overhead.
	plain, perr := runInProcess(filepath.Join(runDir, "plain"), sp, seed, false)
	if perr != nil {
		return nil, errors.Join(err, perr)
	}
	traced, terr := runInProcess(filepath.Join(runDir, "traced"), sp, seed, true)
	if terr != nil {
		return nil, errors.Join(err, terr)
	}
	tl.add(traced.tally)
	tl.add(plain.tally)
	if tl.failed > 0 && err == nil {
		err = fmt.Errorf("%d of %d operations failed, first: %w", tl.failed, tl.attempted, tl.firstErr)
	}
	tracePath := filepath.Join(work, "trace_"+sp.name+".jsonl")
	if werr := writeSpans(tracePath, traced.spans); werr != nil {
		err = errors.Join(err, werr)
	}
	logf("wall: traced run: %d ops in %v traced, %v untraced; %d spans in %s", traced.ops, traced.elapsed, plain.elapsed, len(traced.spans), tracePath)

	err = errors.Join(err, layerMetrics(rep, sp, traced, unit))
	rep.set("trace.overhead_pct", 100*(traced.elapsed.Seconds()-plain.elapsed.Seconds())/plain.elapsed.Seconds())
	rep.Attempted, rep.Failed = tl.attempted, tl.failed
	err = errors.Join(err, rep.check(perLayer))
	rep.Correct = err == nil
	return rep, err
}

// layerMetrics turns the traced run's spans, counter deltas and unit costs
// into the per-layer metrics, and checks that the spans nest: the layers'
// self times add up to a request's client span only because every span is
// clipped to its parent, so no span may start outside its parent.
func layerMetrics(rep *report, sp *spec, tr *traceResult, unit unitCosts) error {
	ops := float64(tr.ops)
	perReq, background := breakdown(tr.spans)
	var sum layerTimes
	for _, lt := range perReq {
		sum.total += lt.total
		sum.client += lt.client
		sum.rpc += lt.rpc
		sum.bullet += lt.bullet
		sum.disk += lt.disk
		sum.orphans += lt.orphans
	}
	perOpUS := func(ns int64) float64 { return float64(ns) / 1e3 / ops }
	rep.set("client.self_us_per_op", perOpUS(sum.client))
	rep.set("rpc.self_us_per_op", perOpUS(sum.rpc))
	rep.set("bullet.self_us_per_op", perOpUS(sum.bullet))
	rep.set("disk.self_us_per_op", perOpUS(sum.disk))
	rep.set("disk.background_us_per_op", perOpUS(background))

	var reads, writes, syncs, readBytes, writeBytes, faultBytes int64
	for _, s := range tr.spans {
		switch s.Name {
		case "disk.read":
			reads++
			readBytes += s.Bytes
			if s.Req != 0 {
				faultBytes += s.Bytes
			}
		case "disk.write":
			writes++
			writeBytes += s.Bytes
		case "disk.sync":
			syncs++
		}
	}
	d := tr.delta
	rep.set("disk.reads_per_op", float64(reads)/ops)
	rep.set("disk.read_bytes_per_op", float64(readBytes)/ops)
	rep.set("disk.writes_per_op", float64(writes)/ops)
	rep.set("disk.syncs_per_op", float64(syncs)/ops)
	amp := 0.0
	if d.bytesIn > 0 {
		amp = float64(writeBytes) / float64(d.bytesIn)
	}
	rep.set("disk.write_bytes_per_user_byte", amp)

	rep.set("rpc.bytes_out_per_op", float64(d.bytesOut)/ops)
	owned := 0.0
	if d.requests > 0 {
		owned = float64(d.ownedReplies) / float64(d.requests)
	}
	rep.set("rpc.owned_reply_ratio", owned)
	rep.set("rpc.dedup_copied_bytes_per_op", float64(d.dedupCopied)/ops)
	rep.set("bullet.read_copies_per_op", float64(d.readCopies)/ops)
	rep.set("bullet.fault_merges_per_op", float64(d.faultMerges)/ops)
	rep.set("cache.hit_ratio", d.hitRatio())
	rep.set("cache.insertions_per_op", float64(d.insertions)/ops)
	rep.set("cache.evictions_per_op", float64(d.evict)/ops)
	rep.set("cache.pin_release_ns", unit.pinReleaseNS)
	rep.set("cache.insert_us_per_mib", unit.insertUSPerMiB)
	rep.set("capability.verify_ns", unit.verifyNS)
	rep.set("alloc.alloc_free_ns", unit.allocFreeNS)
	rep.set("alloc.fragmentation_pct", tr.fragPct)
	rep.set("layout.write_inode_us", unit.writeInodeUS)
	rep.set("layout.boot_scan_s", tr.bootScan.Seconds())

	// What the unit costs explain of the engine's self time. Inode writes
	// are not subtracted: WriteInode's time on a FileDisk is device time
	// and already sits in disk.self.
	verifies := max(0, d.requests-d.creates-d.capcacheHits)
	explainedNS := unit.verifyNS*float64(verifies) +
		unit.pinReleaseNS*float64(d.hits) +
		unit.allocFreeNS*float64(d.creates+d.deletes)/2 +
		unit.insertUSPerMiB*1e3*float64(d.bytesIn+faultBytes)/(1<<20)
	rep.set("bullet.residual_us_per_op", perOpUS(sum.bullet)-explainedNS/1e3/ops)

	rep.set("proc.allocs_per_op", float64(tr.mallocs)/ops)
	rep.set("proc.alloc_bytes_per_op", float64(tr.allocB)/ops)
	rep.set("proc.gc_cycles", float64(tr.gcCycles))

	logf("wall: per op: client %.2f us = client.self %.2f + rpc.self %.2f + bullet.self %.2f + disk.self %.2f; %d requests, %d spans that start outside their parent",
		perOpUS(sum.total), perOpUS(sum.client), perOpUS(sum.rpc), perOpUS(sum.bullet), perOpUS(sum.disk), len(perReq), sum.orphans)

	var errs []string
	if sum.orphans > 0 {
		errs = append(errs, fmt.Sprintf("%d spans start outside their parent span: they are recorded against the wrong request, and the layer self times do not describe the requests", sum.orphans))
	}
	if len(perReq) == 0 {
		errs = append(errs, "no request recorded a client span")
	}
	readOnly := sp.name == "hot_small_read" || sp.name == "cold_large_read"
	if readOnly && writes != 0 {
		errs = append(errs, fmt.Sprintf("%d device writes on a read-only workload", writes))
	}
	if sp.name == "hot_small_read" && reads != 0 {
		errs = append(errs, fmt.Sprintf("%d device reads on the all-hits workload", reads))
	}
	if sp.name == "cold_large_read" && float64(reads) < ops {
		errs = append(errs, fmt.Sprintf("%d device reads for %d all-miss ops", reads, tr.ops))
	}
	if gerr := sp.guard(d); gerr != nil {
		errs = append(errs, gerr.Error())
	}
	if len(errs) > 0 {
		return errors.New("traced run: " + strings.Join(errs, "; "))
	}
	return nil
}
