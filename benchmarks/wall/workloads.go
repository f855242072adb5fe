package main

import (
	"fmt"
	"math/rand"

	"bulletfs/internal/stats"
	"bulletfs/internal/workload"
)

// An op is one operation of a workload, fully determined by the seed: the
// servers see only what executing it sends.
type opKind uint8

const (
	opRead      opKind = iota // whole-file READ of slot
	opReadRange               // READ_RANGE of n bytes at off
	opChurn                   // CREATE a file, then DELETE it
	opReplace                 // CREATE slot's next version, then DELETE the old one
)

type op struct {
	kind    opKind
	slot    int
	version int   // content version read, or written by opChurn/opReplace
	size    int   // size of the file read or created
	off, n  int64 // opReadRange: n is already clipped at end of file
}

// A generator yields one worker's op sequence; generators built with the
// same arguments yield the same sequence. The harness drives Bullet from
// it and the null server with the twins of the ops Bullet completed.
type generator func() op

// spec defines a workload: the bulletd flags that make it what it is, its
// initial population, its op stream and the guard that proves it still
// exercises the layer it was chosen for.
type spec struct {
	name string
	// bulletd -size and -inodes; every other flag keeps bulletd's default
	// except -disks -format -listen -cache, which are fixed in bulletd.go.
	sizeMB, inodes int
	// population is the size of every slot's initial file.
	population func(seed int64) []int
	// shared: both workers use one client.Client (and one null connection).
	shared  bool
	pfactor int
	gen     func(seed int64, sizes []int, worker, workers int) generator
	// warm lists the slots read once before the warm-up, in order.
	warm func(slots int) []int
	// guard checks the STATS delta over the measured phase.
	guard func(d statsDelta) error
	// traceOps is the fixed op count of the traced run.
	traceOps int
}

const cacheMB = 64

func uniformSizes(n, size int) func(int64) []int {
	return func(int64) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = size
		}
		return s
	}
}

func allSlots(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// Why each workload is here is recorded in BENCHMARK.json and ../README.md.
var specs = []*spec{
	{ // every op a cache hit: rpc + bulletsvc + the engine hit path, no disk
		name:       "hot_small_read",
		sizeMB:     64,
		inodes:     10000,
		population: uniformSizes(512, 4<<10),
		pfactor:    2,
		warm:       allSlots,
		traceOps:   60000,
		gen: func(seed int64, sizes []int, worker, _ int) generator {
			rng := rand.New(rand.NewSource(seed*131 + int64(worker)))
			return func() op {
				slot := rng.Intn(len(sizes))
				return op{kind: opRead, slot: slot, size: sizes[slot]}
			}
		},
		guard: func(d statsDelta) error {
			if d.diskReads != 0 {
				return fmt.Errorf("%d disk reads during a workload that must be all cache hits", d.diskReads)
			}
			if d.hitRatio() < 0.99 {
				return fmt.Errorf("cache hit ratio %.4f < 0.99", d.hitRatio())
			}
			return nil
		},
	},
	{ // reuse distance 160 MiB > 64 MiB cache: every op a miss, disk-bound
		name:       "cold_large_read",
		sizeMB:     256,
		inodes:     10000,
		population: uniformSizes(160, 1<<20),
		pfactor:    2,
		warm:       func(int) []int { return nil },
		traceOps:   3000,
		gen: func(seed int64, sizes []int, worker, workers int) generator {
			// Worker w scans its own share of the slots in order, starting
			// at a seed-chosen position.
			share := len(sizes) / workers
			base := worker * share
			i := int(mix64(uint64(seed)+uint64(worker)) % uint64(share))
			return func() op {
				slot := base + i
				i = (i + 1) % share
				return op{kind: opRead, slot: slot, size: sizes[slot]}
			}
		},
		guard: func(d statsDelta) error {
			if d.hitRatio() > 0.02 {
				return fmt.Errorf("cache hit ratio %.4f > 0.02 on a workload that must miss", d.hitRatio())
			}
			return nil
		},
	},
	{ // the write path: alloc, inode writes, replica fan-out, commit
		name:       "create_delete",
		sizeMB:     64,
		inodes:     10000,
		population: func(int64) []int { return nil },
		pfactor:    2,
		warm:       func(int) []int { return nil },
		traceOps:   15000,
		gen: func(_ int64, _ []int, worker, _ int) generator {
			v := 0
			return func() op {
				v++
				return op{kind: opChurn, slot: churnSlot + worker, version: v, size: 4 << 10}
			}
		},
		guard: func(d statsDelta) error {
			if d.creates == 0 || d.creates != d.deletes {
				return fmt.Errorf("%d creates but %d deletes in the measured phase", d.creates, d.deletes)
			}
			return nil
		},
	},
	{ // the paper's mix on one shared client: partial hit ratio, tcpConn.mu
		name:   "paper_mix",
		sizeMB: 256,
		inodes: 10000,
		population: func(seed int64) []int {
			return workload.New(workload.Config{Seed: seed, Files: mixSlots}).Population()
		},
		shared:   true,
		pfactor:  1,
		traceOps: 30000,
		warm: func(n int) []int {
			// Descending, so the popular low slots are the most recent.
			s := allSlots(n)
			for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
				s[i], s[j] = s[j], s[i]
			}
			return s
		},
		gen: mixGenerator,
		guard: func(d statsDelta) error {
			if r := d.hitRatio(); r <= 0.3 || r >= 0.98 {
				return fmt.Errorf("cache hit ratio %.4f outside (0.3, 0.98): the mix no longer overflows the rnode table partially", r)
			}
			return nil
		},
	},
}

const (
	mixSlots = 3000
	// churnSlot keys the contents of create_delete's files, clear of any
	// population slot; keptSlot those of the restart check.
	churnSlot = 1 << 20
	keptSlot  = 2 << 20
)

// mixGenerator adapts internal/workload's trace to a constant population:
// the worker owns a contiguous share of the slots, picks among them the
// way workload.Trace picks files, and turns both of the trace's write
// kinds into "replace this slot's file" (create the new version, delete
// the old one), which is how Bullet updates a file.
func mixGenerator(seed int64, sizes []int, worker, workers int) generator {
	share := len(sizes) / workers
	base := worker * share
	own := append([]int(nil), sizes[base:base+share]...)
	versions := make([]int, share)
	g := workload.New(workload.Config{Seed: seed*257 + int64(worker) + 1, Files: share})
	offs := rand.New(rand.NewSource(seed*263 + int64(worker)))
	var buf []workload.Event
	return func() op {
		if len(buf) == 0 {
			buf = g.Trace(1024)
		}
		ev := buf[0]
		buf = buf[1:]
		o := op{slot: base + ev.File, version: versions[ev.File], size: own[ev.File]}
		switch ev.Op {
		case workload.OpWholeRead:
			o.kind = opRead
		case workload.OpPartRead:
			o.kind = opReadRange
			o.off = offs.Int63n(int64(o.size))
			o.n = min(ev.N, int64(o.size)-o.off)
		case workload.OpCreate, workload.OpDelete:
			o.kind = opReplace
			if ev.Op == workload.OpCreate {
				o.size = ev.Size
			}
			versions[ev.File]++
			o.version = versions[ev.File]
			own[ev.File] = o.size
		}
		return o
	}
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// statsDelta is the part of a STATS snapshot difference the guards and
// the per-layer metrics read.
type statsDelta struct {
	hits, misses      int64
	diskReads         int64
	diskWrites        int64
	creates, deletes  int64
	insertions, evict int64
	readCopies        int64
	faultMerges       int64
	bytesOut          int64
	ownedReplies      int64
	dedupCopied       int64
	requests          int64
	capcacheHits      int64
	bytesIn           int64
}

func (d statsDelta) hitRatio() float64 {
	if d.hits+d.misses == 0 {
		return 0
	}
	return float64(d.hits) / float64(d.hits+d.misses)
}

func value(s stats.Snapshot, name string) int64 {
	if v, ok := s.Counters[name]; ok {
		return v
	}
	return s.Gauges[name]
}

func delta(before, after stats.Snapshot) statsDelta {
	d := func(name string) int64 { return value(after, name) - value(before, name) }
	sd := statsDelta{
		hits:         d("cache.hits"),
		misses:       d("cache.misses"),
		creates:      d("bullet.creates"),
		deletes:      d("bullet.deletes"),
		insertions:   d("cache.insertions"),
		evict:        d("cache.evictions"),
		readCopies:   d("bullet.read_copies"),
		faultMerges:  d("bullet.fault_merges"),
		bytesOut:     d("rpc.bytes_out"),
		ownedReplies: d("rpc.owned_replies"),
		dedupCopied:  d("rpc.dedup_copied_bytes"),
		capcacheHits: d("bullet.capcache_hits"),
		bytesIn:      d("bullet.bytes_in"),
	}
	for i := 0; i < replicas; i++ {
		sd.diskReads += d(fmt.Sprintf("disk.replica%d.reads", i))
		sd.diskWrites += d(fmt.Sprintf("disk.replica%d.writes", i))
	}
	for name, h := range after.Histograms {
		if len(name) > 11 && name[:4] == "rpc." && name[len(name)-11:] == ".latency_ns" {
			sd.requests += int64(h.Count) - int64(before.Histograms[name].Count)
		}
	}
	return sd
}
