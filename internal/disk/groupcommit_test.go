package disk

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newGCSet(t *testing.T) *ReplicaSet {
	t.Helper()
	devs := make([]Device, 2)
	for i := range devs {
		mem, err := NewMem(512, 1024)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs[i] = mem
	}
	rs, err := NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	return rs
}

func TestGroupCommitBatchesConcurrentSubmits(t *testing.T) {
	rs := newGCSet(t)
	var epilogues atomic.Int64
	var epilogueTags atomic.Int64
	g := NewGroupCommitter(rs, time.Hour, 8, func(i int, dev Device, tags []uint32) error {
		epilogues.Add(1)
		epilogueTags.Store(int64(len(tags)))
		return nil
	})

	// 8 concurrent submits with a far-future window: the batch-size cap
	// flushes them as one forced batch.
	var ops atomic.Int64
	var settled atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			done, later := g.Submit(GroupEntry{
				SyncN: 1,
				Tag:   uint32(k),
				Op: func(i int, dev Device) error {
					ops.Add(1)
					return dev.WriteAt([]byte{byte(k)}, int64(k)*512)
				},
				OnSettled: func() { settled.Add(1) },
			})
			if err := <-done; err != nil {
				t.Errorf("entry %d: %v", k, err)
			}
			if later != nil { // this submit filled the batch
				later()
			}
		}(k)
	}
	wg.Wait()
	rs.Drain()

	if got := g.Batches(); got != 1 {
		t.Fatalf("Batches = %d, want 1 (all 8 submits share one round-trip)", got)
	}
	if got := g.Entries(); got != 8 {
		t.Fatalf("Entries = %d, want 8", got)
	}
	if got := g.Forced(); got != 1 {
		t.Fatalf("Forced = %d, want 1", got)
	}
	if got := ops.Load(); got != 8*int64(rs.N()) {
		t.Fatalf("ops ran %d times, want %d (8 entries x %d replicas)", got, 8*rs.N(), rs.N())
	}
	if got := settled.Load(); got != 8 {
		t.Fatalf("OnSettled ran %d times, want 8", got)
	}
	// The epilogue ran once per replica with the full batch's tags.
	if got := epilogues.Load(); got != int64(rs.N()) {
		t.Fatalf("epilogue ran %d times, want %d", got, rs.N())
	}
	if got := epilogueTags.Load(); got != 8 {
		t.Fatalf("epilogue saw %d tags, want 8", got)
	}
}

func TestGroupCommitWindowFlush(t *testing.T) {
	rs := newGCSet(t)
	g := NewGroupCommitter(rs, time.Millisecond, 64, nil)
	done, _ := g.Submit(GroupEntry{SyncN: 1, Op: func(i int, dev Device) error {
		return dev.WriteAt([]byte("w"), 0)
	}})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("window flush never fired")
	}
	if g.Batches() != 1 || g.Forced() != 0 {
		t.Fatalf("Batches = %d, Forced = %d; want a single timer-driven batch", g.Batches(), g.Forced())
	}
}

func TestGroupCommitExplicitFlushBeforeDrain(t *testing.T) {
	rs := newGCSet(t)
	g := NewGroupCommitter(rs, time.Hour, 64, nil)
	var wrote atomic.Bool
	done, _ := g.Submit(GroupEntry{SyncN: 0, Op: func(i int, dev Device) error {
		wrote.Store(true)
		return dev.WriteAt([]byte("q"), 0)
	}})
	// Queued entries are invisible to Drain: without a Flush the write has
	// not even started.
	rs.Drain()
	if wrote.Load() {
		t.Fatal("queued entry ran before Flush")
	}
	if g.Queued() != 1 {
		t.Fatalf("Queued = %d, want 1", g.Queued())
	}
	if err := g.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	rs.Drain() // Flush + Drain = full quiescence
	if !wrote.Load() {
		t.Fatal("entry did not run after Flush + Drain")
	}
	if err := <-done; err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Idempotent on an empty queue.
	if err := g.Flush(); err != nil {
		t.Fatalf("empty Flush: %v", err)
	}
}

func TestGroupCommitErrorFansOutToWholeBatch(t *testing.T) {
	rs := newGCSet(t)
	bad := fmt.Errorf("replica exploded")
	g := NewGroupCommitter(rs, time.Hour, 2, nil)
	mkEntry := func() GroupEntry {
		return GroupEntry{SyncN: rs.N(), Op: func(i int, dev Device) error { return bad }}
	}
	d1, _ := g.Submit(mkEntry())
	d2, _ := g.Submit(mkEntry()) // fills the batch, forces the flush; every replica failed, so nothing is left
	for i, d := range []<-chan error{d1, d2} {
		select {
		case err := <-d:
			if err == nil {
				t.Fatalf("entry %d: nil error, want the batch failure", i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("entry %d never settled", i)
		}
	}
}

// TestGroupCommitRemainderOutsideFlush: a batch's remainder, here hung in
// replica 1's write, holds up neither the forced flush that made it (the
// submitter gets it back as later) nor the next batch.
func TestGroupCommitRemainderOutsideFlush(t *testing.T) {
	memA, err := NewMem(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	memB, err := NewMem(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	hung := &hungDevice{Device: memB, release: make(chan struct{})}
	rs, err := NewReplicaSet(memA, hung)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(rs, time.Hour, 1, nil)
	submit := func(tag byte) func() {
		t.Helper()
		var flushed atomic.Bool
		type result struct {
			err   error
			later func()
		}
		res := make(chan result, 1)
		go func() {
			done, later := g.Submit(GroupEntry{SyncN: 1, Tag: uint32(tag),
				Op:        func(i int, dev Device) error { return dev.WriteAt([]byte{tag}, int64(tag)*512) },
				OnFlushed: func(func()) { flushed.Store(true) },
			})
			res <- result{<-done, later}
		}()
		select {
		case r := <-res:
			if r.err != nil || r.later == nil || !flushed.Load() {
				t.Fatalf("entry %d: err %v, later nil %v, flushed %v; want its quorum, and the remainder handed back",
					tag, r.err, r.later == nil, flushed.Load())
			}
			return r.later
		case <-time.After(5 * time.Second):
			t.Fatalf("entry %d: the forced flush waited for the hung replica", tag)
			return nil
		}
	}
	go submit(1)() // the first batch's remainder hangs in replica 1
	later := submit(2)
	close(hung.release)
	rs.Drain()
	later() // taken by the Drain: a no-op
	for _, tag := range []byte{1, 2} {
		got := make([]byte, 1)
		if err := memB.ReadAt(got, int64(tag)*512); err != nil || got[0] != tag {
			t.Fatalf("replica 1 at entry %d: %v %v", tag, got, err)
		}
	}
}
