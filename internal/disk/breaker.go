package disk

// Gray-failure tolerance for the replica set. The paper's failure model
// is fail-stop: a disk is either correct or dead (§3, the dual-disk
// mirror). Real disks also go *gray* — they keep answering, just orders
// of magnitude more slowly — and a fail-stop reader behind a gray main
// turns every read into a stall. This file adds the three mechanisms
// that bound the damage, all off by default (EnableBreakers) and all
// driven by an injectable clock so tests never sleep:
//
//   - Per-replica health scoring: an EWMA of observed read latency per
//     replica, fed by every attempt the read ladder makes.
//   - Circuit breakers: a replica whose reads are persistently slow
//     relative to its fastest peer trips open and is read only as a
//     last resort; after a cooldown it half-opens and one probe read
//     decides whether it closes again.
//   - Predictive hedging: when a peer's EWMA is less than half the
//     main's, the ladder reads that peer first. Such hedges are capped
//     at DefaultHedgeRatePct of laddered reads, so a misbehaving
//     heuristic can at worst reroute a small fraction of read load.
//
// The ladder itself is ReadVerified's: every attempt runs in place, on
// the caller's goroutine, into the caller's buffer. Breakers change only
// the order of the attempts (grayOrder).

import (
	"sync/atomic"
	"time"
)

// Breaker states. Closed is the zero value: a fresh replica is trusted.
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName renders a breaker state for health reports.
func breakerStateName(s int32) string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one replica's health score and circuit state. All fields
// are atomics: concurrent readers feed observations while others rank
// the ladder from them, lock-free.
type breaker struct {
	state    atomic.Int32 // breakerClosed / breakerOpen / breakerHalfOpen
	ewmaNs   atomic.Int64 // smoothed read latency; 0 = no observation yet
	openedAt atomic.Int64 // clock nanos when the breaker last opened
	streak   atomic.Int32 // consecutive slow-or-failed reads while closed
}

// DefaultSlowStreak is how many consecutive slow reads open a breaker.
// A streak, not a rate: one hiccup is weather.
const DefaultSlowStreak = 3

// DefaultHedgeRatePct is the hard cap on predictive hedges as a
// percentage of laddered reads.
const DefaultHedgeRatePct = 5

// slowFactor: a read is "slow" when it exceeds slowFactor times the
// fastest peer's EWMA. The comparison is relative so a uniformly slow
// medium (every replica equally loaded) never trips.
const slowFactor = 8

// BreakerConfig configures gray-failure handling for a ReplicaSet. The
// zero value of any field gets a sane default; the clock hook makes the
// whole mechanism virtual-time friendly.
type BreakerConfig struct {
	// MinSlow is the absolute floor below which no read counts as slow,
	// whatever the peers look like (default 50ms). Keeps cache-warm
	// microsecond EWMAs from branding a normal disk read as gray.
	MinSlow time.Duration
	// Cooldown is how long an open breaker waits before half-opening
	// for a probe read (default 5s).
	Cooldown time.Duration
	// Now supplies nanoseconds for EWMA timing and cooldowns; nil means
	// wall clock. Simulated worlds pass their virtual clock.
	Now func() int64
}

// grayConfig is BreakerConfig with defaults resolved, stored behind an
// atomic pointer so the read path branches on one load.
type grayConfig struct {
	minSlowNs  int64
	cooldownNs int64
	now        func() int64
}

// EnableBreakers turns on per-replica health scoring, circuit breaking
// and predictive hedging. Until it is called the read order is the
// fail-stop ladder's. Call before serving; re-configuring a live set is
// safe (the pointer swap is atomic) but resets no breaker state.
func (s *ReplicaSet) EnableBreakers(cfg BreakerConfig) {
	g := &grayConfig{minSlowNs: int64(cfg.MinSlow), cooldownNs: int64(cfg.Cooldown), now: cfg.Now}
	if g.minSlowNs <= 0 {
		g.minSlowNs = int64(50 * time.Millisecond)
	}
	if g.cooldownNs <= 0 {
		g.cooldownNs = int64(5 * time.Second)
	}
	if g.now == nil {
		g.now = func() int64 { return time.Now().UnixNano() }
	}
	s.gray.Store(g)
}

// observeRead feeds one read attempt's outcome into replica i's health
// score and breaker. The ladder calls it after every device read, on
// the reader's goroutine. Atomics only; no locks.
func (s *ReplicaSet) observeRead(g *grayConfig, i int, ns int64, failed bool) {
	b := &s.brk[i]
	if ns < 1 {
		ns = 1
	}
	old := b.ewmaNs.Load()
	if old == 0 {
		b.ewmaNs.Store(ns)
	} else {
		b.ewmaNs.Store((7*old + ns) / 8)
	}

	slow := failed || ns >= s.slowThreshold(g, i)
	switch b.state.Load() {
	case breakerClosed:
		if !slow {
			b.streak.Store(0)
			return
		}
		if b.streak.Add(1) >= DefaultSlowStreak {
			if b.state.CompareAndSwap(breakerClosed, breakerOpen) {
				b.openedAt.Store(g.now())
				b.streak.Store(0)
				s.breakerOpens.Inc()
			}
		}
	case breakerHalfOpen:
		// The probe's verdict: one good read closes, one bad re-opens.
		if slow {
			if b.state.CompareAndSwap(breakerHalfOpen, breakerOpen) {
				b.openedAt.Store(g.now())
				s.breakerOpens.Inc()
			}
		} else if b.state.CompareAndSwap(breakerHalfOpen, breakerClosed) {
			b.streak.Store(0)
			s.breakerCloses.Inc()
		}
	}
}

// slowThreshold is the latency above which a read on replica i counts
// as slow: slowFactor times the fastest *other* replica's EWMA, floored
// at MinSlow. Relative to peers so a uniformly loaded set never trips.
func (s *ReplicaSet) slowThreshold(g *grayConfig, i int) int64 {
	best := int64(0)
	for j := range s.brk {
		if j == i {
			continue
		}
		if e := s.brk[j].ewmaNs.Load(); e > 0 && (best == 0 || e < best) {
			best = e
		}
	}
	thr := g.minSlowNs
	if best > 0 && best*slowFactor > thr {
		thr = best * slowFactor
	}
	return thr
}

// grayOrder fills order with the read ladder under gray-failure rules
// and returns its length: any half-open replica first (its probe read is
// the point of half-open), then closed replicas — fastest EWMA first,
// with the main winning unless a peer is at least twice as fast — and
// open-breaker replicas dead last, kept only so a read can still succeed
// when everything healthy has failed. Open breakers whose cooldown has
// passed are flipped half-open here (CAS; one winner per transition).
func (s *ReplicaSet) grayOrder(g *grayConfig, order *[maxReplicas]int, main int, aliveMask uint64) int {
	now := g.now()
	var state [maxReplicas]int32
	for i := range s.devs {
		if aliveMask&(1<<uint(i)) == 0 {
			continue
		}
		b := &s.brk[i]
		st := b.state.Load()
		if st == breakerOpen && now-b.openedAt.Load() >= g.cooldownNs {
			if b.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
				s.breakerProbes.Inc()
			}
			st = b.state.Load()
		}
		state[i] = st
	}
	n := 0
	fill := func(want int32) int {
		for i := range s.devs {
			if aliveMask&(1<<uint(i)) != 0 && state[i] == want {
				order[n] = i
				n++
			}
		}
		return n
	}
	lo := fill(breakerHalfOpen)
	hi := fill(breakerClosed)
	fill(breakerOpen)
	// Closed ranking: keep the paper's main-first order (sequential
	// locality on the main spindle) unless a peer's EWMA is less than
	// half the main's — a demotion that ReadVerified accounts as a
	// predictive hedge, subject to the cap. The 2x rule is not
	// transitive, so the algorithm is part of the order: an insertion
	// sort, which is what sort.SliceStable runs on up to 20 elements.
	run := order[lo:hi]
	for k := 1; k < len(run); k++ {
		for j := k; j > 0 && s.rankBefore(run[j], run[j-1], main); j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
	return n
}

// rankBefore orders two closed replicas: by EWMA when one is at least
// twice as fast as the other, else the main first, else by index.
func (s *ReplicaSet) rankBefore(ia, ib, main int) bool {
	ea, eb := s.brk[ia].ewmaNs.Load(), s.brk[ib].ewmaNs.Load()
	if ea > 0 && eb > 0 && (ea*2 < eb || eb*2 < ea) {
		return ea < eb
	}
	if (ia == main) != (ib == main) {
		return ia == main
	}
	return ia < ib
}

// allowHedge applies the hard hedge-rate cap: granting this hedge must
// keep hedges within DefaultHedgeRatePct percent of laddered reads. The
// +1 makes the check conservative from the first read — at 5%, no hedge
// is granted until twenty reads have been served.
func (s *ReplicaSet) allowHedge() bool {
	return (s.hedgedReads.Load()+1)*100 <= s.grayLadderReads.Load()*DefaultHedgeRatePct
}
