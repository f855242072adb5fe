package disk

import (
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/trace"
)

// TestDrainWaitsForSettleHook is the regression test for the
// stats-snapshot-vs-settle race: in the old ordering the last replica
// goroutine retired its write from the drain tracker BEFORE running the
// onSettled hook, so a Drain (e.g. the one before a final stats snapshot
// at shutdown) could return while settle work was still in flight. Now
// onSettled runs before endWrite, so Drain returning implies the hook has
// completed. Looped to give the scheduler chances to expose a reordering.
func TestDrainWaitsForSettleHook(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		a, err := NewMem(512, 64)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewMem(512, 64)
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewReplicaSet(a, b)
		if err != nil {
			t.Fatal(err)
		}
		var settled atomic.Bool
		// P-FACTOR 0: the whole fanout, including the settle hook, runs in
		// the background — the interleaving the bug needed.
		err = commit(set, nil, nil, 0, func(i int, dev Device) error {
			time.Sleep(time.Microsecond)
			return dev.WriteAt([]byte{1}, 0)
		}, func() {
			time.Sleep(10 * time.Microsecond) // widen the race window
			settled.Store(true)
		})
		if err != nil {
			t.Fatal(err)
		}
		set.Drain()
		if !settled.Load() {
			t.Fatalf("iter %d: Drain returned before the settle hook completed", iter)
		}
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyNotifyTracedSpans pins the per-replica commit span shape: one
// replica-commit span per live replica, carrying the replica index and
// the p-factor, with settled replicas stamped with a real duration.
func TestApplyNotifyTracedSpans(t *testing.T) {
	a, err := NewMem(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMem(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewReplicaSet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	rec := trace.NewRecorder(trace.WithCapacity(4, 4))
	tc := rec.AcquireCtx()
	tc.Reset(42)
	root := tc.Begin(nil, trace.LayerRPC, trace.OpRequest)

	if err := commit(set, tc, root, 2, func(i int, dev Device) error {
		return dev.WriteAt([]byte{7}, 0)
	}, nil); err != nil {
		t.Fatal(err)
	}
	tc.End(root)
	tc.Finish()

	traces := rec.Recent()
	if len(traces) != 1 {
		t.Fatalf("%d traces, want 1", len(traces))
	}
	var commits []trace.Span
	for i := 0; i < traces[0].N; i++ {
		sp := traces[0].Spans[i]
		if sp.Op == trace.OpReplicaCommit {
			commits = append(commits, sp)
		}
	}
	if len(commits) != 2 {
		t.Fatalf("%d replica-commit spans, want 2: %+v", len(commits), traces[0].Spans[:traces[0].N])
	}
	seen := map[int8]bool{}
	for _, sp := range commits {
		seen[sp.Replica] = true
		if sp.PFactor != 2 {
			t.Fatalf("span p-factor %d, want 2", sp.PFactor)
		}
		if sp.Layer != trace.LayerDisk {
			t.Fatalf("span layer %v, want disk", sp.Layer)
		}
		// syncN == replica count: both writes completed before return.
		if sp.Dur == trace.DurPending {
			t.Fatalf("fully synchronous commit left replica %d pending", sp.Replica)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("replica indices missing: %v", seen)
	}
}
