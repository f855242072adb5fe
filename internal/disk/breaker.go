package disk

// Gray-failure tolerance for the replica set. The paper's failure model
// is fail-stop: a disk is either correct or dead (§3, the dual-disk
// mirror). Real disks also go *gray* — they keep answering, just orders
// of magnitude more slowly — and a fail-stop reader behind a gray main
// turns every read into a stall. This file adds the three mechanisms
// that bound the damage, all off by default (EnableBreakers) and all
// driven by injectable clocks so tests never sleep:
//
//   - Per-replica health scoring: an EWMA of observed read latency per
//     replica, fed by every attempt — including abandoned hedges, so a
//     replica the ladder routes around still accumulates evidence.
//   - Circuit breakers: a replica whose reads are persistently slow
//     relative to its fastest peer trips open and is read only as a
//     last resort; after a cooldown it half-opens and one probe read
//     decides whether it closes again.
//   - Hedged reads: when the preferred replica is slow — predicted by
//     EWMA ranking, or detected in flight by a timer — the read is
//     issued to a second replica and the first response wins. Hedges
//     are capped at a hard percentage of reads so a misbehaving
//     heuristic can at worst double a small fraction of read load.

import (
	"sort"
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
// are atomics: observations arrive from read-attempt goroutines
// (including abandoned hedge losers) while the ladder reads them
// lock-free.
type breaker struct {
	state    atomic.Int32 // breakerClosed / breakerOpen / breakerHalfOpen
	ewmaNs   atomic.Int64 // smoothed read latency; 0 = no observation yet
	openedAt atomic.Int64 // clock nanos when the breaker last opened
	streak   atomic.Int32 // consecutive slow-or-failed reads while closed
}

// DefaultSlowStreak is how many consecutive slow reads open a breaker.
const DefaultSlowStreak = 3

// DefaultHedgeRatePct is the hard cap on hedged reads as a percentage
// of laddered reads.
const DefaultHedgeRatePct = 5

// BreakerConfig configures gray-failure handling for a ReplicaSet. The
// zero value of any field gets a sane default; the two clock hooks make
// the whole mechanism virtual-time friendly.
type BreakerConfig struct {
	// SlowFactor: a read is "slow" when it exceeds SlowFactor times the
	// fastest peer's EWMA (default 8). The comparison is relative so a
	// uniformly slow medium (every replica equally loaded) never trips.
	SlowFactor int64
	// MinSlow is the absolute floor below which no read counts as slow,
	// whatever the peers look like (default 50ms). Keeps cache-warm
	// microsecond EWMAs from branding a normal disk read as gray.
	MinSlow time.Duration
	// SlowStreak consecutive slow reads open the breaker (default
	// DefaultSlowStreak). A streak, not a rate: one hiccup is weather.
	SlowStreak int
	// Cooldown is how long an open breaker waits before half-opening
	// for a probe read (default 5s).
	Cooldown time.Duration
	// HedgeDelayMin/Max clamp the hedge delay derived from the observed
	// read-latency p99 (defaults 10ms / 500ms).
	HedgeDelayMin time.Duration
	HedgeDelayMax time.Duration
	// HedgeRatePct is the hard hedge-rate cap in percent of laddered
	// reads (default DefaultHedgeRatePct). Both predictive and timer
	// hedges count against it.
	HedgeRatePct int64
	// Now supplies nanoseconds for EWMA timing and cooldowns; nil means
	// wall clock. Simulated worlds pass their virtual clock.
	Now func() int64
	// After arms the in-flight hedge timer; nil means time.After. A
	// hook that returns a nil channel disables timer hedging entirely —
	// the right choice for discrete-event worlds, where predictive
	// (EWMA-ranked) hedging does the work deterministically.
	After func(time.Duration) <-chan time.Time
}

// grayConfig is BreakerConfig with defaults resolved, stored behind an
// atomic pointer so the read path branches on one load.
type grayConfig struct {
	slowFactor int64
	minSlowNs  int64
	slowStreak int32
	cooldownNs int64
	hedgeMinNs int64
	hedgeMaxNs int64
	hedgePct   int64
	now        func() int64
	after      func(time.Duration) <-chan time.Time
}

// EnableBreakers turns on per-replica health scoring, circuit breaking
// and hedged reads. Until it is called the read path is byte-for-byte
// the fail-stop ladder. Call before serving; re-configuring a live set
// is safe (the pointer swap is atomic) but resets no breaker state.
func (s *ReplicaSet) EnableBreakers(cfg BreakerConfig) {
	g := &grayConfig{
		slowFactor: cfg.SlowFactor,
		minSlowNs:  int64(cfg.MinSlow),
		slowStreak: int32(cfg.SlowStreak),
		cooldownNs: int64(cfg.Cooldown),
		hedgeMinNs: int64(cfg.HedgeDelayMin),
		hedgeMaxNs: int64(cfg.HedgeDelayMax),
		hedgePct:   cfg.HedgeRatePct,
		now:        cfg.Now,
		after:      cfg.After,
	}
	if g.slowFactor <= 0 {
		g.slowFactor = 8
	}
	if g.minSlowNs <= 0 {
		g.minSlowNs = int64(50 * time.Millisecond)
	}
	if g.slowStreak <= 0 {
		g.slowStreak = DefaultSlowStreak
	}
	if g.cooldownNs <= 0 {
		g.cooldownNs = int64(5 * time.Second)
	}
	if g.hedgeMinNs <= 0 {
		g.hedgeMinNs = int64(10 * time.Millisecond)
	}
	if g.hedgeMaxNs <= g.hedgeMinNs {
		g.hedgeMaxNs = int64(500 * time.Millisecond)
		if g.hedgeMaxNs < g.hedgeMinNs {
			g.hedgeMaxNs = g.hedgeMinNs
		}
	}
	if g.hedgePct <= 0 {
		g.hedgePct = DefaultHedgeRatePct
	}
	if g.now == nil {
		g.now = func() int64 { return time.Now().UnixNano() }
	}
	if g.after == nil {
		g.after = time.After
	}
	s.gray.Store(g)
}

// BreakersEnabled reports whether gray-failure handling is on.
func (s *ReplicaSet) BreakersEnabled() bool { return s.gray.Load() != nil }

// observeRead feeds one read attempt's outcome into replica i's health
// score and breaker. Runs on the attempt goroutine — abandoned hedge
// losers still report, which is what lets the breaker open on a replica
// the ladder has already learned to avoid. Atomics only; no locks.
func (s *ReplicaSet) observeRead(g *grayConfig, i int, dur time.Duration, failed bool) {
	b := &s.brk[i]
	ns := int64(dur)
	if ns < 1 {
		ns = 1
	}
	old := b.ewmaNs.Load()
	if old == 0 {
		b.ewmaNs.Store(ns)
	} else {
		b.ewmaNs.Store((7*old + ns) / 8)
	}
	s.readHist.Observe(ns)

	slow := failed || ns >= s.slowThreshold(g, i)
	switch b.state.Load() {
	case breakerClosed:
		if !slow {
			b.streak.Store(0)
			return
		}
		if b.streak.Add(1) >= g.slowStreak {
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
// as slow: SlowFactor times the fastest *other* replica's EWMA, floored
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
	if best > 0 && best*g.slowFactor > thr {
		thr = best * g.slowFactor
	}
	return thr
}

// grayOrder builds the read ladder under gray-failure rules: any
// half-open replica first (its probe read is the point of half-open),
// then closed replicas — fastest EWMA first, with the main winning
// unless a peer is at least twice as fast — and open-breaker replicas
// dead last, kept only so a read can still succeed when everything
// healthy has failed. Open breakers whose cooldown has passed are
// flipped half-open here (CAS; one winner per transition).
func (s *ReplicaSet) grayOrder(g *grayConfig, main int, aliveMask uint64) []int {
	now := g.now()
	var half, closed, open []int
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
		switch st {
		case breakerHalfOpen:
			half = append(half, i)
		case breakerOpen:
			open = append(open, i)
		default:
			closed = append(closed, i)
		}
	}
	// Closed ranking: keep the paper's main-first order (sequential
	// locality on the main spindle) unless a peer's EWMA is less than
	// half the main's — a demotion that readGray accounts as a
	// predictive hedge, subject to the cap.
	sort.SliceStable(closed, func(a, b int) bool {
		ia, ib := closed[a], closed[b]
		ea, eb := s.brk[ia].ewmaNs.Load(), s.brk[ib].ewmaNs.Load()
		if ea > 0 && eb > 0 && (ea*2 < eb || eb*2 < ea) {
			return ea < eb
		}
		if (ia == main) != (ib == main) {
			return ia == main
		}
		return ia < ib
	})
	order := make([]int, 0, len(half)+len(closed)+len(open))
	order = append(order, half...)
	order = append(order, closed...)
	order = append(order, open...)
	return order
}

// allowHedge applies the hard hedge-rate cap: granting this hedge must
// keep hedges within hedgePct percent of laddered reads. The +1 makes
// the check conservative from the first read — at 5%, no hedge is
// granted until twenty reads have been served.
func (s *ReplicaSet) allowHedge(g *grayConfig) bool {
	return (s.hedgedReads.Load()+1)*100 <= s.grayLadderReads.Load()*g.hedgePct
}

// hedgeDelay derives the in-flight hedge timer from the observed
// read-latency p99, clamped to the configured window. Before enough
// observations exist the delay sits at the clamp maximum — hedging
// starts conservative and tightens as evidence accumulates.
func (s *ReplicaSet) hedgeDelay(g *grayConfig) time.Duration {
	p99 := int64(s.readHist.Snapshot().Quantile(0.99))
	if p99 <= 0 {
		return time.Duration(g.hedgeMaxNs)
	}
	if p99 < g.hedgeMinNs {
		p99 = g.hedgeMinNs
	}
	if p99 > g.hedgeMaxNs {
		p99 = g.hedgeMaxNs
	}
	return time.Duration(p99)
}

// beginRead registers one in-flight read attempt with the read drain
// tracker (see DrainReads).
func (s *ReplicaSet) beginRead() {
	s.readMu.Lock()
	s.pendingReads++
	s.readMu.Unlock()
}

// endRead retires one in-flight read attempt.
func (s *ReplicaSet) endRead() {
	s.readMu.Lock()
	s.pendingReads--
	if s.pendingReads == 0 {
		s.readCond.Broadcast()
	}
	s.readMu.Unlock()
}

// DrainReads blocks until no hedged-read attempt is in flight. Tests
// use it to assert loser bookkeeping. Close deliberately does NOT wait
// on reads: a read stuck on a gray device must not hang shutdown — the
// abandoned attempt writes only to its private buffer.
func (s *ReplicaSet) DrainReads() {
	s.readMu.Lock()
	for s.pendingReads > 0 {
		s.readCond.Wait()
	}
	s.readMu.Unlock()
}
