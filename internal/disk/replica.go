package disk

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// Errors specific to replica management.
var (
	// ErrChecksum means a replica returned data that failed the caller's
	// integrity check: the device answered, but with corrupt bytes.
	ErrChecksum = errors.New("disk: replica data failed checksum")
	// ErrRecovering means a recovery is already in progress; the set
	// rebuilds one replica at a time.
	ErrRecovering = errors.New("disk: a recovery is already in progress")
)

// DefaultErrorBudget is how many checksum mismatches a replica may serve
// before it is quarantined (marked dead). I/O errors still demote a
// replica immediately — a drive that cannot answer is gone — but a drive
// that answers wrongly gets repaired in place until it exhausts the
// budget, because occasional latent sector corruption is recoverable
// while systematic corruption is not.
const DefaultErrorBudget = 8

// ReplicaSet manages N identical replica disks (the paper's hardware had
// two). Reads go to the main disk, failing over — and permanently demoting
// the main — when it dies. Writes are applied to every live replica; the
// create operation's P-FACTOR chooses how many must complete before the
// caller resumes (paper §2.2, §3). The caller writes that quorum itself,
// main replica first and then by ascending index, so commit latency for
// P-FACTOR k is the sum of k disk writes; what the reply does not wait for
// (the replicas beyond the quorum, breaker-open replicas, the recovery
// mirror) the caller writes too, once its reply is out (ApplyDeferred).
//
// Beyond the paper: reads can carry a verification callback (ReadVerified)
// that turns silent corruption into failover plus in-place repair, and
// recovery is an online catch-up copy rather than the paper's stop-the-
// world whole-disk copy (§3: "Recovery is simply done by copying the
// complete disk" — still true, but the engine keeps running while it
// happens; see docs/RECOVERY.md).
type ReplicaSet struct {
	mu    sync.Mutex
	devs  []Device // immutable after construction (liveness is in alive)
	alive []bool   // guarded by mu
	main  int      // guarded by mu

	// pending tracks in-flight replica writes (both the synchronous phase
	// and the post-P-FACTOR remainder) for Drain. A plain counter with a
	// condition variable, not a WaitGroup: a Sync or Recover may Drain
	// while concurrent creators start new writes, which WaitGroup's
	// Add/Wait contract forbids. parked: remainders nobody has started.
	pendMu   sync.Mutex
	pendCond *sync.Cond           // signals pending == 0 and a new parked entry
	pending  int                  // guarded by pendMu
	parked   map[*behind]struct{} // guarded by pendMu

	// applyGate serializes recovery state changes against write fan-out
	// launches. ApplyDeferred holds the read side only while it snapshots
	// liveness and registers its fan-out with the drain tracker — never
	// across I/O — so the write side (taken twice per recovery, at arm
	// and finish) stalls commits for microseconds, not for the copy.
	// Ordering matters: markDead and Drain never touch applyGate, so a
	// recovery holding the write side cannot deadlock against a dying
	// replica or a draining reader.
	applyGate sync.RWMutex
	// recovering is the replica index under online recovery, -1 if none.
	// Written only while holding applyGate's write side; read atomically
	// (under the read side by ApplyDeferred, lock-free by observers).
	recovering atomic.Int32
	recDev     *recordingDevice // mirror target; guarded by applyGate
	recFailed  atomic.Bool      // a mirrored write failed; recovery must abort

	// Per-replica activity counters (atomic; indexed like devs).
	reads        []stats.Counter // successful ReadAt calls served by replica i
	writes       []stats.Counter // successful op applications on replica i
	errs         []stats.Counter // failures that demoted replica i
	checksumErrs []stats.Counter // reads that returned corrupt data (lifetime)
	selfheals    []stats.Counter // bad extents rewritten in place on replica i
	failovers    stats.Counter   // reads served by a non-main replica

	// faults is the quarantine budget tracker: like checksumErrs but reset
	// when the replica is recovered, so a repaired drive starts clean.
	faults    []atomic.Int64
	errBudget atomic.Int64

	selfhealTotal stats.Counter
	promotions    stats.Counter // times a new main was promoted
	recoveries    stats.Counter // completed online recoveries

	// Gray-failure state (see breaker.go). gray is nil until
	// EnableBreakers; the read ladder branches on that one load, so the
	// disabled set reads in exactly the fail-stop order. brk is always
	// allocated so health reports and metrics are uniform either way.
	gray atomic.Pointer[grayConfig]
	brk  []breaker

	grayLadderReads stats.Counter // reads laddered in grayOrder's order
	hedgedReads     stats.Counter // predictive hedges granted
	breakerOpens    stats.Counter
	breakerCloses   stats.Counter
	breakerProbes   stats.Counter

	// Commit observability: commits with a synchronous phase, and the
	// total quorum width of those phases. fanout/commits is the mean number
	// of disks a caller wrote before its reply. (The names predate the
	// caller-run quorum; the exported metric names are pinned.)
	parallelCommits stats.Counter
	commitFanout    stats.Counter
}

// maxReplicas bounds a set so replica liveness fits a uint64 snapshot
// (ReadAt's lock-free failover order). Sixty-four disks is far beyond the
// paper's two and any deployment this server targets.
const maxReplicas = 64

// NewReplicaSet builds a set over devs. All devices must share a geometry.
func NewReplicaSet(devs ...Device) (*ReplicaSet, error) {
	if len(devs) == 0 {
		return nil, fmt.Errorf("replica set needs at least one device: %w", ErrBadGeometry)
	}
	if len(devs) > maxReplicas {
		return nil, fmt.Errorf("replica set of %d exceeds %d devices: %w", len(devs), maxReplicas, ErrBadGeometry)
	}
	bs, nb := devs[0].BlockSize(), devs[0].Blocks()
	for i, d := range devs[1:] {
		if d.BlockSize() != bs || d.Blocks() != nb {
			return nil, fmt.Errorf("replica %d geometry %dx%d differs from %dx%d: %w",
				i+1, d.BlockSize(), d.Blocks(), bs, nb, ErrBadGeometry)
		}
	}
	alive := make([]bool, len(devs))
	for i := range alive {
		alive[i] = true
	}
	s := &ReplicaSet{
		devs:         devs,
		alive:        alive,
		reads:        make([]stats.Counter, len(devs)),
		writes:       make([]stats.Counter, len(devs)),
		errs:         make([]stats.Counter, len(devs)),
		checksumErrs: make([]stats.Counter, len(devs)),
		selfheals:    make([]stats.Counter, len(devs)),
		faults:       make([]atomic.Int64, len(devs)),
		brk:          make([]breaker, len(devs)),
		parked:       make(map[*behind]struct{}),
	}
	s.pendCond = sync.NewCond(&s.pendMu)
	s.errBudget.Store(DefaultErrorBudget)
	s.recovering.Store(-1)
	return s, nil
}

// N returns the number of replicas, dead or alive.
func (s *ReplicaSet) N() int { return len(s.devs) }

// BlockSize returns the common sector size.
func (s *ReplicaSet) BlockSize() int { return s.devs[0].BlockSize() }

// Blocks returns the common capacity.
func (s *ReplicaSet) Blocks() int64 { return s.devs[0].Blocks() }

// AliveCount returns how many replicas are currently usable.
func (s *ReplicaSet) AliveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// Main returns the index of the current main (read) disk.
func (s *ReplicaSet) Main() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.main
}

// Alive reports whether replica i is usable.
func (s *ReplicaSet) Alive(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alive[i]
}

// SetErrorBudget sets how many checksum mismatches a replica may serve
// before being quarantined. n <= 0 is ignored.
func (s *ReplicaSet) SetErrorBudget(n int64) {
	if n > 0 {
		s.errBudget.Store(n)
	}
}

// markDead demotes replica i; if it was the main, the next live replica is
// promoted and its index returned (else -1). Safe to call from concurrent
// committers and their background writers.
func (s *ReplicaSet) markDead(i int) (promoted int) {
	s.errs[i].Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.alive[i] = false
	if s.main == i {
		for j, a := range s.alive {
			if a {
				s.main = j
				s.promotions.Inc()
				return j
			}
		}
	}
	return -1
}

// notePromotion emits the trace event for a main promotion. markDead
// already counted it; this is the per-request view. promoted < 0 (no
// promotion happened) is a no-op, so call sites never branch.
func (s *ReplicaSet) notePromotion(tc *trace.Ctx, parent *trace.Span, promoted int) {
	if promoted < 0 {
		return
	}
	sp := tc.Add(parent, trace.LayerDisk, trace.OpPromote, time.Now(), 0)
	if sp != nil {
		sp.Replica = int8(promoted)
	}
}

// readSnapshot captures the current main index and the liveness set as a
// bitmask, so ReadAt can walk its failover order without holding the mutex
// or allocating an order slice on every read.
func (s *ReplicaSet) readSnapshot() (main int, aliveMask uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, a := range s.alive {
		if a {
			aliveMask |= 1 << uint(i)
		}
	}
	return s.main, aliveMask
}

// ReadAt reads from the main disk, failing over to any other live replica.
// It returns ErrNoReplica only when every replica has failed.
func (s *ReplicaSet) ReadAt(p []byte, off int64) error {
	return s.ReadVerified(nil, nil, p, off, nil)
}

// ReadVerified is the one read ladder. It reads from the main disk, failing
// over to the other live replicas, on the caller's goroutine and straight
// into p. With breakers on (EnableBreakers) the order of the attempts comes
// from grayOrder and every attempt is timed into the replica's health
// score; nothing else changes.
//
// verify, when non-nil, is called on the bytes each replica returns, and a
// replica whose bytes fail it is treated like a failed read — the set fails
// over to the next live replica — except that the lying replica stays alive.
// Once a replica's copy verifies, every replica that returned corrupt bytes
// during this call has the bad extent rewritten in place from the good copy
// (self-heal). A replica is quarantined (marked dead) only after its
// checksum-error budget is exhausted; see SetErrorBudget.
//
// Spans (tc may be nil): one disk-read span per attempt (Status 1 for an I/O
// error, 2 for a checksum mismatch), a hedge span when the health ranking
// demoted the main, disk-repair spans per self-heal rewrite, and a promote
// span if a demotion moved the main.
func (s *ReplicaSet) ReadVerified(tc *trace.Ctx, parent *trace.Span, p []byte, off int64, verify func([]byte) bool) error {
	main, aliveMask := s.readSnapshot()
	// The order lives on the stack: no allocation, no lock held across
	// the I/O.
	var order [maxReplicas]int
	n := 0
	g := s.gray.Load()
	if g == nil {
		// Fail-stop: the main first, then the remaining live replicas in
		// index order.
		if aliveMask&(1<<uint(main)) != 0 {
			order[n], n = main, n+1
		}
		for i := range s.devs {
			if i != main && aliveMask&(1<<uint(i)) != 0 {
				order[n], n = i, n+1
			}
		}
	} else if n = s.grayOrder(g, &order, main, aliveMask); n > 0 {
		s.grayLadderReads.Inc()
		s.predictiveHedge(tc, parent, order[:n], main)
	}

	var lastErr error
	tried := 0
	var bad []int // replicas that answered with corrupt bytes this call
	for _, i := range order[:n] {
		sp := tc.Begin(parent, trace.LayerDisk, trace.OpDiskRead)
		var t0 int64
		if g != nil {
			t0 = g.now()
		}
		err := s.devs[i].ReadAt(p, off)
		if g != nil {
			s.observeRead(g, i, g.now()-t0, err != nil)
		}
		if sp != nil {
			sp.Replica = int8(i)
			sp.Bytes = int64(len(p))
			if err != nil {
				sp.Status = 1
			}
		}
		if err == nil && verify != nil && !verify(p) {
			// The replica answered, but wrongly. Count it against the
			// budget, keep the replica for now, and fail over.
			if sp != nil {
				sp.Status = 2
			}
			tc.End(sp)
			s.checksumErrs[i].Inc()
			tried++
			lastErr = fmt.Errorf("replica %d at offset %d: %w", i, off, ErrChecksum)
			bad = append(bad, i)
			if s.faults[i].Add(1) >= s.errBudget.Load() {
				s.notePromotion(tc, parent, s.markDead(i))
			}
			continue
		}
		tc.End(sp)
		if err == nil {
			s.reads[i].Inc()
			if tried > 0 {
				s.failovers.Inc()
			}
			// p now holds a verified copy: rewrite it over every corrupt
			// replica seen on the way here.
			for _, j := range bad {
				s.selfHeal(tc, parent, j, p, off)
			}
			return nil
		}
		if errors.Is(err, ErrOutOfRange) {
			return err // caller bug, not a media failure
		}
		tried++
		lastErr = err
		s.notePromotion(tc, parent, s.markDead(i))
	}
	if lastErr != nil {
		return fmt.Errorf("all replicas failed (last: %w): %w", lastErr, ErrNoReplica)
	}
	return ErrNoReplica
}

// predictiveHedge accounts for grayOrder's demotion of a closed main: a
// hedge away from a slow-but-unbroken replica, paid from the hedge-rate
// cap. With the cap spent, the main goes back first.
func (s *ReplicaSet) predictiveHedge(tc *trace.Ctx, parent *trace.Span, order []int, main int) {
	k := 0
	for k < len(order) && order[k] != main {
		k++
	}
	if k == 0 || k == len(order) ||
		s.brk[main].state.Load() != breakerClosed ||
		s.brk[order[0]].state.Load() != breakerClosed {
		return
	}
	if s.allowHedge() {
		s.hedgedReads.Inc()
		if sp := tc.Add(parent, trace.LayerDisk, trace.OpHedge, time.Now(), 0); sp != nil {
			sp.Replica = int8(order[0])
		}
		return
	}
	copy(order[1:k+1], order[:k])
	order[0] = main
}

// selfHeal rewrites one corrupt extent of replica i with verified bytes.
// Best-effort: a replica that cannot even accept the repair write is dead.
func (s *ReplicaSet) selfHeal(tc *trace.Ctx, parent *trace.Span, i int, p []byte, off int64) {
	if !s.Alive(i) {
		return // quarantined in the meantime; recovery will rebuild it
	}
	start := time.Now()
	err := s.devs[i].WriteAt(p, off)
	sp := tc.Add(parent, trace.LayerDisk, trace.OpDiskRepair, start, int64(time.Since(start)))
	if sp != nil {
		sp.Replica = int8(i)
		sp.Bytes = int64(len(p))
		if err != nil {
			sp.Status = 1
		}
	}
	if err != nil {
		s.notePromotion(tc, parent, s.markDead(i))
		return
	}
	s.selfheals[i].Inc()
	s.selfhealTotal.Inc()
}

// Repair rewrites one extent of replica i with known-good bytes. The
// scrubber uses it after deciding which copy is authoritative. The write
// counts as a self-heal; a replica that rejects it is marked dead.
func (s *ReplicaSet) Repair(i int, p []byte, off int64) error {
	if i < 0 || i >= len(s.devs) {
		return fmt.Errorf("repair: no replica %d: %w", i, ErrOutOfRange)
	}
	if !s.Alive(i) {
		return fmt.Errorf("repair: replica %d is dead: %w", i, ErrNoReplica)
	}
	if err := s.devs[i].WriteAt(p, off); err != nil {
		s.markDead(i)
		return fmt.Errorf("repair: writing replica %d: %w", i, err)
	}
	s.selfheals[i].Inc()
	s.selfhealTotal.Inc()
	return nil
}

// beginWrites registers n in-flight replica writes with the drain tracker.
func (s *ReplicaSet) beginWrites(n int) {
	s.pendMu.Lock()
	s.pending += n
	s.pendMu.Unlock()
}

// endWrites retires n in-flight replica writes.
func (s *ReplicaSet) endWrites(n int) {
	s.pendMu.Lock()
	s.pending -= n
	if s.pending == 0 {
		s.pendCond.Broadcast()
	}
	s.pendMu.Unlock()
}

// ApplyDeferred is the one commit call. It runs op on every live replica,
// the first syncN — main first, then by index — on the caller's goroutine,
// and returns once they hold the write (syncN <= 0: at once, paper §2.2's
// P-FACTOR 0). A replica whose op fails is marked dead and the next takes
// its place; the call fails only if no live replica took the write. The
// rest comes back as later (nil when nothing is left; non-nil beside an
// error if a recovery mirror is armed): a create's caller runs it after its
// reply, any other caller before it returns. The first call, or a Drain
// that finds it unstarted, writes it; any other is a no-op. onSettled (may
// be nil) runs once, after every replica has finished; op may run
// concurrently with other commits' ops. Each live replica gets a
// replica-commit span, Dur = DurPending if left to later. tc may be nil.
func (s *ReplicaSet) ApplyDeferred(tc *trace.Ctx, parent *trace.Span, syncN int, op func(i int, dev Device) error, onSettled func()) (later func(), _ error) {
	s.applyGate.RLock()
	main, alive := s.readSnapshot()
	if alive == 0 {
		s.applyGate.RUnlock()
		if onSettled != nil {
			onSettled()
		}
		return nil, ErrNoReplica
	}
	// A replica under online recovery is not in the alive mask — it is
	// still officially dead — but must see every write anyway, or the
	// catch-up copy could never converge. The op is mirrored to it through
	// a recording device that logs the extent before writing it, so the
	// recovery loop re-copies anything its bulk pass raced with. The
	// mirror is excluded from the P-FACTOR quorum (it is not durable until
	// recovery completes) but is tracked for Drain and onSettled.
	var mirror Device
	rec := int(s.recovering.Load())
	if rec >= 0 && alive&(1<<uint(rec)) == 0 {
		mirror = s.recDev
	}
	// Quorum eligibility: with gray-failure handling on, a replica whose
	// breaker is open still receives the write (it must stay convergent
	// for the moment its breaker closes) but does not count toward the
	// P-FACTOR quorum — a commit must not wait on a disk known to be
	// answering at gray latency. At least one replica always stays
	// eligible so a fully-gray set degrades to the fail-stop behavior.
	eligible := alive
	if s.gray.Load() != nil {
		var closed uint64
		for i := range s.devs {
			if alive&(1<<uint(i)) != 0 && s.brk[i].state.Load() != breakerOpen {
				closed |= 1 << uint(i)
			}
		}
		if closed != 0 {
			eligible = closed
		}
	}
	// Registering the whole fan-out before the gate is released keeps
	// Drain exact: a recovery that takes the gate and drains, or a Drain
	// entered after ApplyDeferred returns, sees every write this call will start.
	fanout := bits.OnesCount64(alive)
	if mirror != nil {
		fanout++
	}
	s.beginWrites(fanout)
	s.applyGate.RUnlock()

	// The quorum, on this goroutine: main first, then ascending index,
	// until want replicas hold the write; a failed op marks its replica
	// dead and the next one takes its place. If every eligible replica
	// fails, a second pass settles for any one live replica, breaker or
	// no — a slow copy beats none, and no write may still be heading for
	// the extent when the caller rolls it back.
	want := min(syncN, bits.OnesCount64(eligible))
	if want > 0 {
		s.parallelCommits.Inc()
		s.commitFanout.Add(int64(want))
	}
	rest, ok := alive, 0
	for pass := 0; pass < 2 && ok < want; pass++ {
		for k := -1; k < len(s.devs) && ok < want; k++ {
			i := k
			if k < 0 {
				i = main
			} else if k == main {
				continue
			}
			if rest&eligible&(1<<uint(i)) == 0 {
				continue
			}
			rest &^= 1 << uint(i)
			sp := tc.Begin(parent, trace.LayerDisk, trace.OpReplicaCommit)
			err := op(i, s.devs[i])
			if sp != nil {
				sp.Replica = int8(i)
				sp.PFactor = int8(syncN)
			}
			if err == nil {
				s.writes[i].Inc()
				ok++
			} else {
				if sp != nil {
					sp.Status = 1
				}
				s.markDead(i)
			}
			tc.End(sp)
		}
		eligible, want = alive, min(want, 1)
	}

	// What the reply does not wait for (the whole fan-out for syncN <= 0).
	bg := bits.OnesCount64(rest)
	if mirror != nil {
		bg++
	}
	if bg > 0 {
		if tc.Active() {
			now := time.Now()
			for i := range s.devs {
				if rest&(1<<uint(i)) == 0 {
					continue
				}
				if sp := tc.Add(parent, trace.LayerDisk, trace.OpReplicaCommit, now, trace.DurPending); sp != nil {
					sp.Replica = int8(i)
					sp.PFactor = int8(syncN)
				}
			}
		}
		b := &behind{s: s, rest: rest, rec: rec, mirror: mirror, n: bg, op: op, onSettled: onSettled}
		s.pendMu.Lock()
		s.parked[b] = struct{}{}
		s.pendCond.Broadcast() // a Drain already waiting must help, not sleep on
		s.pendMu.Unlock()
		later = b.run
	} else if onSettled != nil {
		// onSettled must complete before the last write is retired from the
		// drain tracker: Drain() returning promises that settle work (the
		// engine's cache unpin, stats updates) has already run, so a final
		// stats snapshot taken after Drain can never race the settle hook.
		onSettled()
	}
	s.endWrites(fanout - bg)
	if syncN > 0 && ok == 0 {
		return later, fmt.Errorf("no replica accepted the write: %w", ErrNoReplica)
	}
	return later, nil
}

// behind is the remainder of one commit: the replicas in rest and, when
// armed, the recovery mirror (replica rec, written through mirror) — n
// writes still counted by the drain tracker. Whoever takes it out of the
// set's parked table — later, or a Drain — writes it, on their goroutine.
type behind struct {
	s         *ReplicaSet
	rest      uint64
	rec       int
	mirror    Device
	n         int
	op        func(i int, dev Device) error
	onSettled func()
}

// run is the later that ApplyDeferred hands out.
func (b *behind) run() {
	b.s.pendMu.Lock()
	_, mine := b.s.parked[b]
	delete(b.s.parked, b)
	b.s.pendMu.Unlock()
	if mine {
		b.write()
	}
}

// write does the remainder in index order with no lock held, then runs
// onSettled, then retires the writes: hook before retire, as in a commit
// with nothing left over.
func (b *behind) write() {
	s := b.s
	for i, dev := range s.devs {
		mirrored := b.mirror != nil && i == b.rec
		if mirrored {
			dev = b.mirror
		} else if b.rest&(1<<uint(i)) == 0 {
			continue
		}
		switch err := b.op(i, dev); {
		case err == nil:
			s.writes[i].Inc()
		case mirrored:
			s.recFailed.Store(true)
		default:
			s.markDead(i)
		}
	}
	if b.onSettled != nil {
		b.onSettled()
	}
	s.endWrites(b.n)
}

// Drain blocks until every registered write has finished, writing parked
// remainders itself (their owners may be stuck behind a client that stopped
// reading). Sync, Close, Recover and the engine's Sync and New use it; a
// request on one file waits for that file's commit alone. Writes that start
// while a Drain waits extend the wait: it returns only at true quiescence.
func (s *ReplicaSet) Drain() {
	s.pendMu.Lock()
	for s.pending > 0 {
		for b := range s.parked {
			delete(s.parked, b)
			s.pendMu.Unlock()
			b.write()
			s.pendMu.Lock()
		}
		if s.pending > 0 && len(s.parked) == 0 { // parked while we wrote: go round
			s.pendCond.Wait()
		}
	}
	s.pendMu.Unlock()
}

// extent is one byte range dirtied by a mirrored write during recovery.
type extent struct{ off, n int64 }

// extentLog collects extents dirtied while a recovery copy runs. Mirrored
// writes append; the recovery loop swaps the whole list out per pass.
type extentLog struct {
	mu   sync.Mutex
	exts []extent
}

func (l *extentLog) add(off, n int64) {
	l.mu.Lock()
	// Collapse immediate rewrites of the same range (inode blocks see
	// these); correctness only needs the range present once per pass.
	if k := len(l.exts); k > 0 && l.exts[k-1] == (extent{off, n}) {
		l.mu.Unlock()
		return
	}
	l.exts = append(l.exts, extent{off, n})
	l.mu.Unlock()
}

func (l *extentLog) swap() []extent {
	l.mu.Lock()
	e := l.exts
	l.exts = nil
	l.mu.Unlock()
	return e
}

// recordingDevice wraps the recovery target: every write logs its extent
// before touching the device, so an extent is either re-copied by a later
// pass or was never written at all — a mirrored write can never be lost to
// a race with the bulk copy.
type recordingDevice struct {
	dev Device
	log *extentLog
}

var _ Device = (*recordingDevice)(nil)

func (r *recordingDevice) BlockSize() int { return r.dev.BlockSize() }
func (r *recordingDevice) Blocks() int64  { return r.dev.Blocks() }
func (r *recordingDevice) ReadAt(p []byte, off int64) error {
	return r.dev.ReadAt(p, off)
}
func (r *recordingDevice) WriteAt(p []byte, off int64) error {
	r.log.add(off, int64(len(p)))
	return r.dev.WriteAt(p, off)
}
func (r *recordingDevice) Sync() error  { return r.dev.Sync() }
func (r *recordingDevice) Close() error { return r.dev.Close() }

// maxCatchupPasses bounds the lock-free convergence loop before recovery
// falls back to its final (briefly gated) pass. Each pass only re-copies
// what was written during the previous one, so under any write rate the
// engine can sustain, the batches shrink geometrically.
const maxCatchupPasses = 8

// Recover brings replica i back online by copying the live contents onto
// it — the paper's whole-disk recovery, made online. The bulk copy runs
// with no locks held while the engine keeps serving reads and commits;
// writes that land during the copy are mirrored to the recovering replica
// and their extents logged, and catch-up passes re-copy the logged
// extents until the replica has converged. Only the final pass briefly
// gates new commits. Recover is synchronous to its caller (when it
// returns nil, the replica is alive and identical) but never stalls the
// rest of the set for the duration of the copy.
func (s *ReplicaSet) Recover(i int) error {
	return s.RecoverTraced(nil, nil, i)
}

// RecoverTraced is Recover with span emission: one recover span covering
// the whole catch-up copy. tc may be nil.
func (s *ReplicaSet) RecoverTraced(tc *trace.Ctx, parent *trace.Span, i int) error {
	if i < 0 || i >= len(s.devs) {
		return fmt.Errorf("recover: no replica %d: %w", i, ErrOutOfRange)
	}

	// Arm mirroring. From the moment the gate is released, every
	// ApplyDeferred fan-out also writes to replica i through the recording
	// device. Writes launched before this point are not mirrored — the
	// Drain below waits for them, so the bulk copy (which starts after)
	// reads their effects from the source.
	s.applyGate.Lock()
	if s.recovering.Load() != -1 {
		s.applyGate.Unlock()
		return fmt.Errorf("recover: replica %d: %w", i, ErrRecovering)
	}
	s.mu.Lock()
	srcOK := s.alive[s.main] && s.main != i
	src := s.devs[s.main]
	alreadyAlive := s.alive[i]
	s.mu.Unlock()
	if !srcOK {
		s.applyGate.Unlock()
		return fmt.Errorf("disk: recover: no live source disk: %w", ErrNoReplica)
	}
	if alreadyAlive {
		s.applyGate.Unlock()
		return nil // live replicas receive every write already
	}
	log := &extentLog{}
	s.recDev = &recordingDevice{dev: s.devs[i], log: log}
	s.recFailed.Store(false)
	s.recovering.Store(int32(i))
	s.applyGate.Unlock()

	s.Drain()

	sp := tc.Begin(parent, trace.LayerDisk, trace.OpRecover)
	if sp != nil {
		sp.Replica = int8(i)
		sp.Bytes = s.Blocks() * int64(s.BlockSize())
	}
	err := s.recoverCopy(src, s.devs[i], log)
	err = s.finishRecovery(src, i, log, err)
	if sp != nil && err != nil {
		sp.Status = 1
	}
	tc.End(sp)
	return err
}

// recoverCopy is the unlocked phase: the bulk whole-disk copy plus the
// lock-free catch-up passes.
func (s *ReplicaSet) recoverCopy(src, dst Device, log *extentLog) error {
	bs := int64(s.BlockSize())
	// Copy a track's worth at a time; big enough to be sequential, small
	// enough not to hold a huge buffer.
	const blocksPerCopy = 64
	buf := make([]byte, bs*blocksPerCopy)
	total := s.Blocks()
	for blk := int64(0); blk < total; blk += blocksPerCopy {
		n := blocksPerCopy
		if rem := total - blk; rem < blocksPerCopy {
			n = int(rem)
		}
		chunk := buf[:int64(n)*bs]
		if err := src.ReadAt(chunk, blk*bs); err != nil {
			return fmt.Errorf("disk: recover: reading source: %w", err)
		}
		if err := dst.WriteAt(chunk, blk*bs); err != nil {
			return fmt.Errorf("disk: recover: writing target: %w", err)
		}
	}
	// Catch-up: re-copy extents dirtied during the previous pass. The
	// swap-then-drain order is load-bearing: an extent in the batch was
	// logged after its fan-out registered with the drain tracker, so the
	// Drain guarantees the source copy of every batched extent has landed
	// before we read it.
	for pass := 0; pass < maxCatchupPasses; pass++ {
		batch := log.swap()
		if len(batch) == 0 {
			break
		}
		s.Drain()
		for _, e := range batch {
			if err := copyExtent(src, dst, e, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// finishRecovery is the gated phase: with new fan-outs held at the gate
// and in-flight ones drained, copy whatever is still dirty, then flip the
// replica alive and disarm mirroring. prevErr aborts the recovery but the
// state teardown still runs.
func (s *ReplicaSet) finishRecovery(src Device, i int, log *extentLog, prevErr error) error {
	s.applyGate.Lock()
	defer s.applyGate.Unlock()
	s.Drain() // all launched fan-outs (and their log adds) complete here
	err := prevErr
	if err == nil {
		buf := make([]byte, int64(s.BlockSize())*64)
		for _, e := range log.swap() {
			if cerr := copyExtent(src, s.devs[i], e, buf); cerr != nil {
				err = cerr
				break
			}
		}
	}
	if err == nil && s.recFailed.Load() {
		err = fmt.Errorf("disk: recover: a mirrored write failed on replica %d: %w", i, ErrFaulted)
	}
	if err == nil {
		if serr := s.devs[i].Sync(); serr != nil {
			err = fmt.Errorf("disk: recover: sync replica %d: %w", i, serr)
		}
	}
	if err == nil {
		s.mu.Lock()
		s.alive[i] = true
		s.mu.Unlock()
		s.faults[i].Store(0) // repaired drives start with a fresh budget
		s.recoveries.Inc()
	}
	s.recovering.Store(-1)
	s.recDev = nil
	return err
}

// copyExtent copies one byte range from src to dst through buf.
func copyExtent(src, dst Device, e extent, buf []byte) error {
	off, n := e.off, e.n
	for n > 0 {
		c := int64(len(buf))
		if n < c {
			c = n
		}
		p := buf[:c]
		if err := src.ReadAt(p, off); err != nil {
			return fmt.Errorf("disk: recover: reading source extent: %w", err)
		}
		if err := dst.WriteAt(p, off); err != nil {
			return fmt.Errorf("disk: recover: writing target extent: %w", err)
		}
		off += c
		n -= c
	}
	return nil
}

// Recovering returns the index of the replica under online recovery, or
// -1 if none.
func (s *ReplicaSet) Recovering() int { return int(s.recovering.Load()) }

// ReplicaHealth is one replica's health snapshot, as served by the
// SALVAGE RPC.
type ReplicaHealth struct {
	Index          int   `json:"index"`
	Alive          bool  `json:"alive"`
	Recovering     bool  `json:"recovering"`
	Main           bool  `json:"main"`
	Reads          int64 `json:"reads"`
	Writes         int64 `json:"writes"`
	Errors         int64 `json:"errors"`
	ChecksumErrors int64 `json:"checksum_errors"`
	Repairs        int64 `json:"repairs"`
	// Gray-failure view: the circuit-breaker state ("closed", "open",
	// "half-open") and the smoothed observed read latency. A set without
	// EnableBreakers reports "closed" and zero.
	Breaker       string `json:"breaker"`
	LatencyEwmaUs int64  `json:"latency_ewma_us"`
}

// Health returns a per-replica health snapshot.
func (s *ReplicaSet) Health() []ReplicaHealth {
	main := s.Main()
	rec := s.Recovering()
	out := make([]ReplicaHealth, len(s.devs))
	for i := range s.devs {
		out[i] = ReplicaHealth{
			Index:          i,
			Alive:          s.Alive(i),
			Recovering:     i == rec,
			Main:           i == main,
			Reads:          s.reads[i].Load(),
			Writes:         s.writes[i].Load(),
			Errors:         s.errs[i].Load(),
			ChecksumErrors: s.checksumErrs[i].Load(),
			Repairs:        s.selfheals[i].Load(),
			Breaker:        breakerStateName(s.brk[i].state.Load()),
			LatencyEwmaUs:  s.brk[i].ewmaNs.Load() / int64(time.Microsecond),
		}
	}
	return out
}

// BreakerState returns replica i's circuit-breaker state name (tests
// and the health report use it).
func (s *ReplicaSet) BreakerState(i int) string {
	return breakerStateName(s.brk[i].state.Load())
}

// HedgedReads returns how many reads were predictively hedged.
func (s *ReplicaSet) HedgedReads() int64 { return s.hedgedReads.Load() }

// BreakerOpens returns how many times any replica's breaker opened.
func (s *ReplicaSet) BreakerOpens() int64 { return s.breakerOpens.Load() }

// GrayLadderReads returns how many reads went through the health-ranked
// ladder — the denominator of the hedge-rate cap.
func (s *ReplicaSet) GrayLadderReads() int64 { return s.grayLadderReads.Load() }

// WriteAt writes p to every live replica synchronously, making ReplicaSet
// itself a Device (used when formatting and by layout.Load/WriteInode).
func (s *ReplicaSet) WriteAt(p []byte, off int64) error {
	later, err := s.ApplyDeferred(nil, nil, s.N(), func(_ int, dev Device) error {
		return dev.WriteAt(p, off)
	}, nil)
	if later != nil {
		later() // an open breaker's or the recovery mirror's copy
	}
	return err
}

// Sync flushes every live replica. Like writes, it succeeds as long as at
// least one replica remains usable.
func (s *ReplicaSet) Sync() error {
	s.Drain()
	for i, dev := range s.devs {
		if !s.Alive(i) {
			continue
		}
		if err := dev.Sync(); err != nil {
			s.markDead(i)
		}
	}
	if s.AliveCount() == 0 {
		return ErrNoReplica
	}
	return nil
}

var _ Device = (*ReplicaSet)(nil)

// Device returns replica i's device (for tests and recovery tooling).
func (s *ReplicaSet) Device(i int) Device { return s.devs[i] }

// Reads returns the number of successful ReadAt calls replica i has
// served (tests assert fault-singleflight behaviour with it).
func (s *ReplicaSet) Reads(i int) int64 { return s.reads[i].Load() }

// Writes returns the number of successful writes replica i has applied
// (tests assert quorum and background-write behaviour with it).
func (s *ReplicaSet) Writes(i int) int64 { return s.writes[i].Load() }

// ChecksumErrors returns how many corrupt reads replica i has served.
func (s *ReplicaSet) ChecksumErrors(i int) int64 { return s.checksumErrs[i].Load() }

// Repairs returns how many extents have been rewritten in place on
// replica i (read-path self-heals plus scrubber repairs).
func (s *ReplicaSet) Repairs(i int) int64 { return s.selfheals[i].Load() }

// Promotions returns how many times the set promoted a new main.
func (s *ReplicaSet) Promotions() int64 { return s.promotions.Load() }

// Recoveries returns how many online recoveries have completed.
func (s *ReplicaSet) Recoveries() int64 { return s.recoveries.Load() }

// AttachMetrics registers the set's per-replica counters with a stats
// registry under the "disk." prefix: reads, writes, demoting errors,
// checksum errors and self-heal repairs per replica, plus liveness,
// failover/promotion/recovery totals, and the commit quorum width
// (synchronous commits and the replicas their callers wrote).
func (s *ReplicaSet) AttachMetrics(r *stats.Registry) {
	for i := range s.devs {
		i := i
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.reads", i), s.reads[i].Load)
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.writes", i), s.writes[i].Load)
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.errors", i), s.errs[i].Load)
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.checksum_errors", i), s.checksumErrs[i].Load)
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.selfheal_repairs", i), s.selfheals[i].Load)
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.alive", i), func() int64 {
			if s.Alive(i) {
				return 1
			}
			return 0
		})
		r.GaugeFunc(fmt.Sprintf("disk.replica%d.breaker_state", i), func() int64 {
			return int64(s.brk[i].state.Load())
		})
		if sim, ok := s.devs[i].(*SimDisk); ok {
			sim.AttachMetrics(r, fmt.Sprintf("disk.replica%d", i))
		}
	}
	r.GaugeFunc("disk.alive_replicas", func() int64 { return int64(s.AliveCount()) })
	r.GaugeFunc("disk.main_index", func() int64 { return int64(s.Main()) })
	r.GaugeFunc("disk.read_failovers", s.failovers.Load)
	r.GaugeFunc("disk.checksum_errors", func() int64 {
		var n int64
		for i := range s.checksumErrs {
			n += s.checksumErrs[i].Load()
		}
		return n
	})
	r.GaugeFunc("disk.selfheal_repairs", s.selfhealTotal.Load)
	r.GaugeFunc("disk.promotions", s.promotions.Load)
	r.GaugeFunc("disk.recoveries", s.recoveries.Load)
	r.GaugeFunc("disk.recovering", func() int64 { return int64(s.Recovering()) })
	r.GaugeFunc("disk.parallel_commits", s.parallelCommits.Load)
	r.GaugeFunc("disk.parallel_commit_fanout", s.commitFanout.Load)
	r.GaugeFunc("disk.hedged_reads", s.hedgedReads.Load)
	r.GaugeFunc("disk.breaker_opens", s.breakerOpens.Load)
	r.GaugeFunc("disk.breaker_closes", s.breakerCloses.Load)
	r.GaugeFunc("disk.breaker_probes", s.breakerProbes.Load)
	r.GaugeFunc("disk.pending_writes", func() int64 {
		s.pendMu.Lock()
		defer s.pendMu.Unlock()
		return int64(s.pending)
	})
}

// Close drains background writes and closes every replica, returning the
// first error.
func (s *ReplicaSet) Close() error {
	s.Drain()
	var first error
	for _, d := range s.devs {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
