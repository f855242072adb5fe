package disk

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bulletfs/internal/stats"
)

// GroupCommitter batches concurrent small writes into shared replica
// round-trips. Each engine create normally costs its own ApplyDeferred
// fan-out — one data write and one inode-block write per quorum replica
// per file — so N concurrent small creates pay N sync round-trips even
// though each replica could absorb all N data writes plus one combined
// metadata write in a single pass. The committer queues entries for up
// to a flush window (or a batch-size cap, whichever trips first) and
// then runs the whole batch as ONE ApplyDeferred: per replica, every
// entry's op in sequence, then a caller-supplied epilogue that writes
// the batch's combined metadata (the engine re-encodes each dirty inode
// block exactly once, however many creates share it).
//
// Durability trades exactly like classic database group commit: an
// entry's quorum wait covers the whole batch, so a caller that asked
// for P-FACTOR k still returns only after k replicas hold its bytes —
// it just may also wait for its batch-mates. Queued entries are NOT yet
// registered with the replica set's drain tracker, so a Drain does not
// see them; a waiter for one entry calls FlushTag with its tag.
type GroupCommitter struct {
	rs       *ReplicaSet
	window   time.Duration
	maxBatch int
	epilogue func(i int, dev Device, tags []uint32) error

	mu    sync.Mutex
	queue []queuedEntry // guarded by mu
	timer *time.Timer   // guarded by mu; armed while queue is non-empty

	// flushMu serializes flushes so two batches never interleave their
	// commits (ordering per submitter is preserved).
	flushMu sync.Mutex

	batches atomic.Int64 // flushes that carried at least one entry
	entries atomic.Int64 // entries committed across all batches
	forced  atomic.Int64 // flushes tripped by the batch-size cap
}

// GroupEntry is one write in a batch.
type GroupEntry struct {
	// SyncN is the entry's P-FACTOR; the batch waits for the maximum
	// across its entries, so no entry gets less durability than it asked
	// for.
	SyncN int
	// Tag identifies the entry to the epilogue (the engine passes the
	// inode number, so the epilogue can write each dirty inode block
	// once).
	Tag uint32
	// Op writes the entry's data on one replica. Like ApplyDeferred ops it
	// may run concurrently across replicas and must touch only caller-owned
	// state plus the device.
	Op func(i int, dev Device) error
	// OnSettled, when non-nil, runs after every replica has finished the
	// whole batch (the ApplyDeferred settle hook, demultiplexed).
	OnSettled func()
	// OnFlushed, when non-nil, runs under the flush lock (so it must not
	// flush) before the result is sent, with the remainder's later or nil.
	OnFlushed func(later func())
}

type queuedEntry struct {
	GroupEntry
	done chan error
}

// NewGroupCommitter builds a committer over rs. window is how long the
// first queued entry may wait for batch-mates; maxBatch (<= 0 means 64)
// flushes early when the queue fills. epilogue (may be nil) runs once
// per replica per batch, after every entry's op, with the batch's tags.
func NewGroupCommitter(rs *ReplicaSet, window time.Duration, maxBatch int, epilogue func(i int, dev Device, tags []uint32) error) *GroupCommitter {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &GroupCommitter{rs: rs, window: window, maxBatch: maxBatch, epilogue: epilogue}
}

// Submit queues one entry and returns the channel its commit result will
// arrive on (buffered; the flush never blocks on a slow consumer). The
// entry commits when the flush window elapses, the batch fills, or
// someone calls Flush — whichever happens first. If this entry fills the
// batch, Submit flushes it and returns the remainder as later, which the
// caller runs once its reply is out (as with ApplyDeferred).
func (g *GroupCommitter) Submit(e GroupEntry) (done <-chan error, later func()) {
	ch := make(chan error, 1)
	g.mu.Lock()
	g.queue = append(g.queue, queuedEntry{GroupEntry: e, done: ch})
	full := len(g.queue) >= g.maxBatch
	if len(g.queue) == 1 && !full {
		g.timer = time.AfterFunc(g.window, func() { g.Flush() })
	}
	g.mu.Unlock()
	if full {
		g.forced.Add(1)
		_, later, _ = g.flush(nil)
	}
	return ch, later
}

// Flush commits every queued entry in one replica round-trip, then writes
// the batch's remainder. Safe with an empty queue.
func (g *GroupCommitter) Flush() error {
	_, later, err := g.flush(nil)
	if later != nil {
		later()
	}
	return err
}

// FlushTag is Flush if an entry tagged tag is queued, and reports whether
// one was; if not, it waits out the quorum of a flush under way, whose
// entries have then had their OnFlushed calls.
func (g *GroupCommitter) FlushTag(tag uint32) bool {
	found, later, _ := g.flush(&tag)
	if later != nil {
		later()
	}
	return found
}

// flush commits the queue as one batch — if tag is nil or tags one of its
// entries — returning the batch's remainder for the caller to write once
// flushMu is released: a held non-quorum replica then holds up neither
// the next batch nor a FlushTag.
func (g *GroupCommitter) flush(tag *uint32) (found bool, later func(), err error) {
	g.flushMu.Lock()
	defer g.flushMu.Unlock()
	g.mu.Lock()
	if tag != nil && !slices.ContainsFunc(g.queue, func(e queuedEntry) bool { return e.Tag == *tag }) {
		g.mu.Unlock()
		return false, nil, nil
	}
	batch := g.queue
	g.queue = nil
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
	g.mu.Unlock()
	if len(batch) == 0 {
		return false, nil, nil
	}

	syncN := 0
	tags := make([]uint32, len(batch))
	for k, e := range batch {
		if e.SyncN > syncN {
			syncN = e.SyncN
		}
		tags[k] = e.Tag
	}
	op := func(i int, dev Device) error {
		for _, e := range batch {
			if err := e.Op(i, dev); err != nil {
				return err
			}
		}
		if g.epilogue != nil {
			return g.epilogue(i, dev, tags)
		}
		return nil
	}
	settle := func() {
		for _, e := range batch {
			if e.OnSettled != nil {
				e.OnSettled()
			}
		}
	}
	later, err = g.rs.ApplyDeferred(nil, nil, syncN, op, settle)
	g.batches.Add(1)
	g.entries.Add(int64(len(batch)))
	for _, e := range batch {
		if e.OnFlushed != nil {
			e.OnFlushed(later)
		}
		e.done <- err
	}
	return true, later, err
}

// Batches returns how many non-empty batches have committed.
func (g *GroupCommitter) Batches() int64 { return g.batches.Load() }

// Entries returns how many entries have committed across all batches.
func (g *GroupCommitter) Entries() int64 { return g.entries.Load() }

// Forced returns how many flushes were tripped by the batch-size cap.
func (g *GroupCommitter) Forced() int64 { return g.forced.Load() }

// Queued returns how many entries are currently waiting for a flush.
func (g *GroupCommitter) Queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}

// AttachMetrics registers the committer's gauges under "disk.".
func (g *GroupCommitter) AttachMetrics(r *stats.Registry) {
	r.GaugeFunc("disk.group_commit_batches", g.batches.Load)
	r.GaugeFunc("disk.group_commit_entries", g.entries.Load)
	r.GaugeFunc("disk.group_commit_forced", g.forced.Load)
	r.GaugeFunc("disk.group_commit_queued", func() int64 { return int64(g.Queued()) })
}
