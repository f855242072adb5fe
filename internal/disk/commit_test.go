package disk

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bulletfs/internal/trace"
)

// onCallerStack reports whether ApplyDeferred is on the calling
// goroutine's stack: true inside an op the committer ran itself, false
// inside one a background goroutine ran.
func onCallerStack() bool {
	pcs := make([]uintptr, 16)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "(*ReplicaSet).ApplyDeferred") {
			return true
		}
		if !more {
			return false
		}
	}
}

// orderLog records which replicas an op ran on, in order, split by who ran
// it. Background ops append from their own goroutines, hence the lock.
type orderLog struct {
	mu         sync.Mutex
	caller, bg []int
}

func (l *orderLog) op(i int, dev Device) error {
	l.mu.Lock()
	if onCallerStack() {
		l.caller = append(l.caller, i)
	} else {
		l.bg = append(l.bg, i)
	}
	l.mu.Unlock()
	return dev.WriteAt([]byte{byte(i + 1)}, 0)
}

// take returns "caller-run / background-run" and resets the log. Call it
// after Drain when a background remainder is expected.
func (l *orderLog) take() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := fmt.Sprintf("%v / %v", l.caller, l.bg)
	l.caller, l.bg = nil, nil
	return s
}

// TestCommitQuorumOrderMainFirst pins the quorum's membership and order:
// the main replica, then the others by ascending index, and the order
// follows a promotion. The quorum is what ran on the caller's stack; the
// remainder ran on background goroutines.
func TestCommitQuorumOrderMainFirst(t *testing.T) {
	s, faulty := newSet(t, 3)
	var log orderLog

	if err := commit(s, nil, nil, 2, log.op, nil); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if got := log.take(); got != "[0 1] / [2]" {
		t.Fatalf("quorum of 2 with main 0 ran on %s, want [0 1] / [2]", got)
	}

	// Replica 0 dies; 1 is promoted and leads the next quorum.
	faulty[0].Fault()
	writeAll(t, s, []byte("notice the fault"), 512)
	if s.Main() != 1 {
		t.Fatalf("main = %d after replica 0 died, want 1", s.Main())
	}
	if err := commit(s, nil, nil, 2, log.op, nil); err != nil {
		t.Fatal(err)
	}
	if got := log.take(); got != "[1 2] / []" {
		t.Fatalf("quorum after promotion ran on %s, want [1 2] / []", got)
	}

	// Replica 0 comes back but 1 stays the main: main first, then
	// ascending index, not plain index order.
	faulty[0].Heal()
	if err := s.Recover(0); err != nil {
		t.Fatal(err)
	}
	if err := commit(s, nil, nil, 3, log.op, nil); err != nil {
		t.Fatal(err)
	}
	if got := log.take(); got != "[1 0 2] / []" {
		t.Fatalf("full quorum with main 1 ran on %s, want [1 0 2] / []", got)
	}
}

// TestCommitQuorumRunsOnCaller pins the tentpole: a P-FACTOR N commit on N
// live replicas runs every op on the calling goroutine — ApplyDeferred is
// on each op's stack — and starts no goroutine.
func TestCommitQuorumRunsOnCaller(t *testing.T) {
	s, _ := newSet(t, 3)
	before := runtime.NumGoroutine()
	ran := 0
	err := commit(s, nil, nil, 3, func(i int, dev Device) error {
		ran++ // unsynchronized on purpose: -race flags any second goroutine
		// > not !=: an earlier test's background writer may still be exiting.
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("replica %d: %d goroutines inside op, %d before the commit", i, n, before)
		}
		if !onCallerStack() {
			t.Errorf("replica %d: op ran off the caller's stack", i)
		}
		return dev.WriteAt([]byte{1}, 0)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 3 {
		t.Fatalf("op ran %d times, want 3", ran)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after a fully synchronous commit, %d before", n, before)
	}
}

// TestCommitApplyAllocFree pins the allocation trim: a fully synchronous
// commit with no mirror and no settle hook allocates nothing.
func TestCommitApplyAllocFree(t *testing.T) {
	a, b := newMem(t, 512, 64), newMem(t, 512, 64)
	s, err := NewReplicaSet(a, b)
	if err != nil {
		t.Fatal(err)
	}
	p := []byte("no garbage on the write path")
	op := func(_ int, dev Device) error { return dev.WriteAt(p, 0) }
	if n := testing.AllocsPerRun(100, func() {
		if err := commit(s, nil, nil, 2, op, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("commit(2) on 2 live replicas allocates %.0f times per call, want 0", n)
	}
}

// TestCommitMainFailsMidCommit: the main rejects the write, is marked dead
// and never counted; the next replicas are written synchronously, the
// quorum is met and the reply succeeds.
func TestCommitMainFailsMidCommit(t *testing.T) {
	s, faulty := newSet(t, 3)
	faulty[0].FailAfterWrites(0)
	var log orderLog
	if err := commit(s, nil, nil, 2, log.op, nil); err != nil {
		t.Fatalf("commit(2) with a failing main: %v", err)
	}
	if got := log.take(); got != "[0 1 2] / []" {
		t.Fatalf("ops ran on %s, want [0 1 2] / [] (failed main replaced in the quorum)", got)
	}
	if s.Alive(0) || s.Main() != 1 || s.Promotions() != 1 {
		t.Fatalf("alive(0)=%v main=%d promotions=%d, want false, 1, 1", s.Alive(0), s.Main(), s.Promotions())
	}
	if s.Writes(0) != 0 || s.Writes(1) != 1 || s.Writes(2) != 1 {
		t.Fatalf("writes = %d,%d,%d, want 0,1,1", s.Writes(0), s.Writes(1), s.Writes(2))
	}
}

// TestCommitQuorumFallsBackToOpenBreaker: breaker-open replicas stay out
// of the quorum while a healthy one can carry it, but when every healthy
// replica fails the caller writes the gray one itself rather than lose
// the commit (or leave a write in flight behind an error return).
func TestCommitQuorumFallsBackToOpenBreaker(t *testing.T) {
	s, faulty := newSet(t, 2)
	s.EnableBreakers(BreakerConfig{})
	s.brk[0].state.Store(breakerOpen)
	var log orderLog
	if err := commit(s, nil, nil, 2, log.op, nil); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if got := log.take(); got != "[1] / [0]" {
		t.Fatalf("quorum with breaker(0) open ran on %s, want [1] / [0]", got)
	}

	faulty[1].FailAfterWrites(0)
	if err := commit(s, nil, nil, 2, log.op, nil); err != nil {
		t.Fatalf("commit with the only healthy replica failing: %v", err)
	}
	if got := log.take(); got != "[1 0] / []" {
		t.Fatalf("ops ran on %s, want [1 0] / []", got)
	}
	if s.Alive(1) || !s.Alive(0) {
		t.Fatalf("alive = %v,%v, want true,false", s.Alive(0), s.Alive(1))
	}
}

// TestCommitSettledExactlyOnce runs the settle hook's contract over every
// shape of commit: onSettled runs exactly once on every return path, has
// run by the time Drain returns, and the error is ErrNoReplica exactly
// when a synchronous commit found no replica to take the write.
func TestCommitSettledExactlyOnce(t *testing.T) {
	failing := [][]int{nil, {0}, {1, 2}, {0, 1, 2}}
	for syncN := 0; syncN <= 3; syncN++ {
		for _, fail := range failing {
			for _, mirror := range []bool{false, true} {
				name := fmt.Sprintf("syncN=%d/fail=%v/mirror=%v", syncN, fail, mirror)
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
					var settled atomic.Int32
					err := commit(s, nil, nil, syncN, func(_ int, dev Device) error {
						return dev.WriteAt([]byte{9}, 0)
					}, func() { settled.Add(1) })
					s.Drain()
					if n := settled.Load(); n != 1 {
						t.Fatalf("onSettled ran %d times by the end of Drain, want 1", n)
					}
					wantErr := syncN > 0 && len(fail) == 3
					if wantErr != errors.Is(err, ErrNoReplica) || !wantErr && err != nil {
						t.Fatalf("err = %v, want ErrNoReplica: %v", err, wantErr)
					}
					if got := s.AliveCount(); got != 3-len(fail) {
						t.Fatalf("alive = %d, want %d", got, 3-len(fail))
					}
					if mirrored := len(log.swap()) == 1; mirrored != mirror {
						t.Fatalf("mirror logged a write: %v, want %v", mirrored, mirror)
					}

					// With every replica dead nothing is registered, and the
					// hook still runs — before the commit returns.
					if len(fail) == 3 {
						err := commit(s, nil, nil, syncN, func(_ int, dev Device) error {
							t.Error("op ran on a set with no live replica")
							return nil
						}, func() { settled.Add(1) })
						if !errors.Is(err, ErrNoReplica) || settled.Load() != 2 {
							t.Fatalf("dead set: err = %v, onSettled total %d; want ErrNoReplica, 2", err, settled.Load())
						}
					}
				})
			}
		}
	}
}

// TestCommitTracedSpansSplit pins what a trace shows of a partial quorum:
// a closed, timed replica-commit span for each write the caller ran and a
// DurPending one for each replica left to the background.
func TestCommitTracedSpansSplit(t *testing.T) {
	s, faulty := newSet(t, 3)
	faulty[0].FailAfterWrites(0)
	rec := trace.NewRecorder(trace.WithCapacity(4, 4))
	tc := rec.AcquireCtx()
	tc.Reset(7)
	root := tc.Begin(nil, trace.LayerRPC, trace.OpRequest)
	if err := commit(s, tc, root, 1, func(_ int, dev Device) error {
		return dev.WriteAt([]byte{7}, 0)
	}, nil); err != nil {
		t.Fatal(err)
	}
	tc.End(root)
	tc.Finish()
	s.Drain()

	tr := rec.Recent()[0]
	var got []string
	for _, sp := range tr.Spans[:tr.N] {
		if sp.Op == trace.OpReplicaCommit {
			got = append(got, fmt.Sprintf("r%d status=%d pending=%v pf=%d", sp.Replica, sp.Status, sp.Dur == trace.DurPending, sp.PFactor))
		}
	}
	want := []string{
		"r0 status=1 pending=false pf=1", // failed on the caller, replaced
		"r1 status=0 pending=false pf=1", // the quorum
		"r2 status=0 pending=true pf=1",  // background
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica-commit spans:\n got %v\nwant %v", got, want)
	}
}
