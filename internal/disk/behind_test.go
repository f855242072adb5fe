package disk

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// pendingNow reads the drain tracker's counter.
func pendingNow(s *ReplicaSet) int {
	s.pendMu.Lock()
	defer s.pendMu.Unlock()
	return s.pending
}

// TestCommitBehindExactlyOnce runs the continuation's contract over every
// shape of commit and every way it can be run: by its owner, by a Drain
// that got there first, or by both racing. Whoever runs it, each replica
// the quorum left out (and the mirror, when armed) sees op exactly once,
// onSettled runs exactly once and while its writes are still counted, a
// second call is a no-op, and Drain returns only with all of it done.
func TestCommitBehindExactlyOnce(t *testing.T) {
	failing := [][]int{nil, {0}, {1, 2}, {0, 1, 2}}
	for syncN := 0; syncN <= 3; syncN++ {
		for _, fail := range failing {
			for _, mirror := range []bool{false, true} {
				for _, who := range []string{"owner", "drain", "race"} {
					name := fmt.Sprintf("syncN=%d/fail=%v/mirror=%v/%s", syncN, fail, mirror, who)
					t.Run(name, func(t *testing.T) {
						// Replica 3 is dead; with mirror armed it is mid-recovery.
						s, faulty := newSet(t, 4)
						s.markDead(3)
						log := &extentLog{}
						if mirror {
							s.applyGate.Lock()
							s.recDev = &recordingDevice{dev: s.devs[3], log: log}
							s.recovering.Store(3)
							s.applyGate.Unlock()
						}
						for _, i := range fail {
							faulty[i].FailAfterWrites(0)
						}
						var ops [4]atomic.Int32
						var settled, settledEarly atomic.Int32
						later, err := s.ApplyDeferred(nil, nil, syncN, func(i int, dev Device) error {
							ops[i].Add(1)
							return dev.WriteAt([]byte{9}, 0)
						}, func() {
							settled.Add(1)
							if pendingNow(s) == 0 {
								settledEarly.Add(1)
							}
						})

						wantErr := syncN > 0 && len(fail) == 3
						if wantErr != errors.Is(err, ErrNoReplica) || !wantErr && err != nil {
							t.Fatalf("err = %v, want ErrNoReplica: %v", err, wantErr)
						}
						// Something is left exactly when the quorum did not have
						// to try every live replica, or a mirror is armed — an
						// error return included.
						quorumTried := 0
						for i, ok := 0, 0; i < 3 && ok < syncN; i++ {
							quorumTried++
							if !slices.Contains(fail, i) {
								ok++
							}
						}
						wantLater := quorumTried < 3 || mirror
						if (later != nil) != wantLater {
							t.Fatalf("later != nil: %v, want %v", later != nil, wantLater)
						}
						if later == nil {
							if settled.Load() != 1 || pendingNow(s) != 0 {
								t.Fatalf("nothing left over: settled %d, pending %d; want 1, 0", settled.Load(), pendingNow(s))
							}
							return
						}
						if settled.Load() != 0 || pendingNow(s) == 0 {
							t.Fatalf("before later: settled %d, pending %d; want 0, > 0", settled.Load(), pendingNow(s))
						}

						switch who {
						case "owner":
							later()
						case "drain":
							s.Drain()
						case "race":
							var wg sync.WaitGroup
							wg.Add(2)
							go func() { defer wg.Done(); later() }()
							go func() { defer wg.Done(); s.Drain() }()
							wg.Wait()
						}
						s.Drain()
						later() // a second (or, after a helping Drain, first) call: no-op
						s.Drain()

						for i := 0; i < 3; i++ {
							if n := ops[i].Load(); n != 1 {
								t.Fatalf("replica %d saw op %d times, want 1", i, n)
							}
						}
						if n := ops[3].Load(); n != map[bool]int32{false: 0, true: 1}[mirror] {
							t.Fatalf("mirror saw op %d times, mirror armed: %v", n, mirror)
						}
						if mirrored := len(log.swap()) == 1; mirrored != mirror {
							t.Fatalf("mirror logged a write: %v, want %v", mirrored, mirror)
						}
						if settled.Load() != 1 || settledEarly.Load() != 0 {
							t.Fatalf("onSettled ran %d times, %d of them with nothing pending; want 1, 0", settled.Load(), settledEarly.Load())
						}
						if got := s.AliveCount(); got != 3-len(fail) {
							t.Fatalf("alive = %d, want %d", got, 3-len(fail))
						}
						if n := pendingNow(s); n != 0 || len(s.parked) != 0 {
							t.Fatalf("after Drain: pending %d, parked %d", n, len(s.parked))
						}
					})
				}
			}
		}
	}
}

// TestBehindStalledOwnerDrainHelps: the owner of a continuation never comes
// back (its reply is stuck in a socket write). A Drain that was already
// asleep when the continuation was parked wakes and writes it; so does one
// that arrives later. The owner's eventual call does nothing.
func TestBehindStalledOwnerDrainHelps(t *testing.T) {
	memA, memB := newMem(t, 512, 64), newMem(t, 512, 64)
	quorum := &hungDevice{Device: memA, release: make(chan struct{})}
	s, err := NewReplicaSet(quorum, memB)
	if err != nil {
		t.Fatal(err)
	}
	var settled atomic.Int32
	op := func(_ int, dev Device) error { return dev.WriteAt([]byte{5}, 0) }

	// The commit is parked inside its quorum write: registered, nothing to
	// help with yet, so this Drain goes to sleep.
	type result struct {
		later func()
		err   error
	}
	committed := make(chan result, 1)
	go func() {
		later, err := s.ApplyDeferred(nil, nil, 1, op, func() { settled.Add(1) })
		committed <- result{later, err}
	}()
	for pendingNow(s) == 0 {
		runtime.Gosched() // registration is the first thing ApplyDeferred does
	}
	drained := make(chan struct{})
	go func() { s.Drain(); close(drained) }()
	for i := 0; i < 100; i++ {
		runtime.Gosched() // let the Drain reach its wait; either order must work
	}
	select {
	case <-drained:
		t.Fatal("Drain returned with a registered commit still in its quorum")
	default:
	}

	close(quorum.release)
	r := <-committed
	if r.err != nil || r.later == nil {
		t.Fatalf("ApplyDeferred(1) on two replicas: later nil: %v, err %v", r.later == nil, r.err)
	}
	<-drained // nobody called later: the sleeping Drain did the work
	if s.Writes(1) != 1 || settled.Load() != 1 || pendingNow(s) != 0 {
		t.Fatalf("after the helping Drain: writes(1)=%d settled=%d pending=%d, want 1,1,0", s.Writes(1), settled.Load(), pendingNow(s))
	}
	got := make([]byte, 1)
	if err := memB.ReadAt(got, 0); err != nil || got[0] != 5 {
		t.Fatalf("replica 1 holds %v (%v), want the write", got, err)
	}
	r.later()
	if s.Writes(1) != 1 || settled.Load() != 1 {
		t.Fatalf("the owner's late call ran the remainder again: writes(1)=%d settled=%d", s.Writes(1), settled.Load())
	}
}

// TestCommitDeferredAllocs pins the cost of a commit that leaves a
// remainder: the continuation and its method value, nothing per replica.
// (The goroutine-per-replica remainder it replaces allocated three times
// for one replica left over and four for two.)
func TestCommitDeferredAllocs(t *testing.T) {
	s, _ := newSet(t, 3)
	p := []byte("x")
	op := func(_ int, dev Device) error { return dev.WriteAt(p, 0) }
	settle := func() {}
	for syncN := 0; syncN < 3; syncN++ {
		if n := testing.AllocsPerRun(200, func() {
			later, err := s.ApplyDeferred(nil, nil, syncN, op, settle)
			if err != nil || later == nil {
				t.Fatalf("ApplyDeferred(%d): later nil: %v, err %v", syncN, later == nil, err)
			}
			later()
		}); n > 2 {
			t.Fatalf("ApplyDeferred(%d) + later allocates %.0f times, want <= 2", syncN, n)
		}
	}
}
