package disk

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// vclock is a virtual timeline for breaker tests: FaultyDisk latency
// sinks Advance it, BreakerConfig.Now reads it. No test here sleeps.
type vclock struct {
	mu  sync.Mutex
	now int64
}

func (c *vclock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *vclock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now += int64(d)
	c.mu.Unlock()
}

// TestBreakerBrownoutOpensAndRecovers is the deterministic brownout
// test: one replica answers 100x slower than healthy, every read still
// completes with zero client-visible errors, the slow replica's breaker
// opens after the configured streak, and once the slowness clears the
// cooldown half-opens it, a probe read succeeds, and the breaker closes
// again — all on a virtual clock.
func TestBreakerBrownoutOpensAndRecovers(t *testing.T) {
	s, faulty := newSet(t, 2)
	clk := &vclock{}
	s.EnableBreakers(BreakerConfig{
		MinSlow:  500 * time.Millisecond,
		Cooldown: 5 * time.Second,
		Now:      clk.Now,
	})
	in := []byte("gray failure: answering, just two seconds late")
	writeAll(t, s, in, 512)

	// Brownout: replica 0 (the main) serves every read, 2s each.
	faulty[0].SetLatency(2*time.Second, 2*time.Second, 1, clk.Advance)
	out := make([]byte, len(in))
	for i := 0; i < DefaultSlowStreak; i++ {
		if err := s.ReadAt(out, 512); err != nil {
			t.Fatalf("read %d during brownout: %v", i, err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("read %d returned wrong bytes", i)
		}
	}
	if got := s.BreakerState(0); got != "open" {
		t.Fatalf("after %d slow reads, breaker(0) = %s, want open", DefaultSlowStreak, got)
	}
	if got := s.BreakerOpens(); got != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", got)
	}

	// With the breaker open, reads route to replica 1 — no errors, no
	// 2s stalls (the virtual clock only advances through the injector).
	before := clk.Now()
	r1 := s.Reads(1)
	for i := 0; i < 5; i++ {
		if err := s.ReadAt(out, 512); err != nil {
			t.Fatalf("read %d with open breaker: %v", i, err)
		}
	}
	if clk.Now() != before {
		t.Fatalf("reads with an open breaker advanced the clock %v; they hit the slow replica", time.Duration(clk.Now()-before))
	}
	if got := s.Reads(1) - r1; got != 5 {
		t.Fatalf("healthy replica served %d of 5 reads", got)
	}
	if s.BreakerState(0) != "open" {
		t.Fatal("breaker re-closed without a probe")
	}

	// Slowness ends; after the cooldown the next read half-opens the
	// breaker, probes replica 0 first, and the fast probe closes it.
	faulty[0].SetLatency(0, 0, 0, nil)
	clk.Advance(5 * time.Second)
	r0 := s.Reads(0)
	if err := s.ReadAt(out, 512); err != nil {
		t.Fatalf("probe read: %v", err)
	}
	if got := s.Reads(0) - r0; got != 1 {
		t.Fatalf("probe read went to replica %v, want the half-open replica 0", got)
	}
	if got := s.BreakerState(0); got != "closed" {
		t.Fatalf("after a fast probe, breaker(0) = %s, want closed", got)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("probe read returned wrong bytes")
	}
	if s.BreakerOpens() != 1 {
		t.Fatalf("BreakerOpens = %d after recovery, want still 1", s.BreakerOpens())
	}
}

// TestBreakerReopensOnSlowProbe pins the half-open → open edge: a probe
// that is still slow sends the breaker straight back to open.
func TestBreakerReopensOnSlowProbe(t *testing.T) {
	s, faulty := newSet(t, 2)
	clk := &vclock{}
	s.EnableBreakers(BreakerConfig{
		MinSlow:  500 * time.Millisecond,
		Cooldown: time.Second,
		Now:      clk.Now,
	})
	in := []byte("still gray")
	writeAll(t, s, in, 0)
	faulty[0].SetLatency(2*time.Second, 2*time.Second, 1, clk.Advance)

	out := make([]byte, len(in))
	for i := 0; i < DefaultSlowStreak; i++ {
		if err := s.ReadAt(out, 0); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second) // cooldown passes, injection does not
	if err := s.ReadAt(out, 0); err != nil {
		t.Fatalf("slow probe read: %v", err)
	}
	if got := s.BreakerState(0); got != "open" {
		t.Fatalf("after a slow probe, breaker(0) = %s, want open again", got)
	}
	if got := s.BreakerOpens(); got != 2 {
		t.Fatalf("BreakerOpens = %d, want 2 (initial + re-open)", got)
	}
}

// grayOrderRef is grayOrder written with slices and sort.SliceStable,
// kept as the reference the stack version must agree with.
func (s *ReplicaSet) grayOrderRef(g *grayConfig, main int, aliveMask uint64) []int {
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

// TestGrayOrderMatchesReference draws random replica worlds — 2 to 8
// replicas, alive masks, breaker states, cooldown ages on either side of
// the boundary, main indices and EWMAs including zeros and values at and
// around twice a base (where the ranking's 2x rule is not transitive) —
// and checks that grayOrder and grayOrderRef give the same order and
// leave the same breaker states and probe count behind.
func TestGrayOrderMatchesReference(t *testing.T) {
	const seeds = 500
	const cooldown, now = int64(time.Second), int64(time.Minute)
	g := &grayConfig{cooldownNs: cooldown, now: func() int64 { return now }}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		base := 2 + rng.Int63n(int64(time.Millisecond))
		ewmas := [...]int64{0, base, base / 2, 2*base - 1, 2 * base, 2*base + 1, 4 * base, 1 + rng.Int63n(5*base)}
		state := make([]int32, n)
		openedAt := make([]int64, n)
		ewma := make([]int64, n)
		for i := 0; i < n; i++ {
			state[i] = int32(rng.Intn(3))
			openedAt[i] = now - cooldown + rng.Int63n(3) - 1 // due, just due, not yet
			if rng.Intn(2) == 0 {
				openedAt[i] = now - rng.Int63n(2*cooldown)
			}
			ewma[i] = ewmas[rng.Intn(len(ewmas))]
		}
		aliveMask := rng.Uint64() & (1<<uint(n) - 1)
		main := rng.Intn(n)
		world := func() *ReplicaSet {
			s := &ReplicaSet{devs: make([]Device, n), brk: make([]breaker, n)}
			for i := range s.brk {
				s.brk[i].state.Store(state[i])
				s.brk[i].openedAt.Store(openedAt[i])
				s.brk[i].ewmaNs.Store(ewma[i])
			}
			return s
		}

		ref, got := world(), world()
		want := ref.grayOrderRef(g, main, aliveMask)
		var order [maxReplicas]int
		k := got.grayOrder(g, &order, main, aliveMask)
		if !slices.Equal(order[:k], want) {
			t.Fatalf("seed %d (n=%d main=%d alive=%b state=%v ewma=%v): order %v, reference %v",
				seed, n, main, aliveMask, state, ewma, order[:k], want)
		}
		for i := 0; i < n; i++ {
			if a, b := got.brk[i].state.Load(), ref.brk[i].state.Load(); a != b {
				t.Fatalf("seed %d: replica %d left %s, reference %s", seed, i, breakerStateName(a), breakerStateName(b))
			}
		}
		if a, b := got.breakerProbes.Load(), ref.breakerProbes.Load(); a != b {
			t.Fatalf("seed %d: %d probes, reference %d", seed, a, b)
		}
	}
}

// stackDevice is a MemDisk that, while watched, records whether its
// ReadAt ran with the named function on the calling goroutine's stack.
type stackDevice struct {
	*MemDisk
	watch   string
	onStack atomic.Bool
}

func (d *stackDevice) ReadAt(p []byte, off int64) error {
	if d.watch != "" {
		d.onStack.Store(callerOnStack(d.watch))
	}
	return d.MemDisk.ReadAt(p, off)
}

func callerOnStack(suffix string) bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, suffix) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestGrayLadderReadsInPlace pins the breakers-on read to the fail-stop
// ladder's cost: a verified 1 MiB read allocates nothing and reads the
// device on the caller's own goroutine, straight into the caller's
// buffer.
func TestGrayLadderReadsInPlace(t *testing.T) {
	const size = 1 << 20
	main := &stackDevice{MemDisk: newMem(t, 512, size/512)}
	s, err := NewReplicaSet(main, newMem(t, 512, size/512))
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	s.EnableBreakers(BreakerConfig{Now: (&vclock{}).Now})
	in := bytes.Repeat([]byte("in place "), size/9+1)[:size]
	writeAll(t, s, in, 0)
	verify := crcVerify(crc32.Checksum(in, castagnoli))
	out := make([]byte, size)

	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.ReadVerified(nil, nil, out, 0, verify); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("breakers-on verified 1 MiB read: %v allocs, want 0", allocs)
	}
	if !bytes.Equal(out, in) {
		t.Fatal("verified read returned wrong bytes")
	}

	main.watch = ".TestGrayLadderReadsInPlace"
	if err := s.ReadVerified(nil, nil, out, 0, verify); err != nil {
		t.Fatal(err)
	}
	if !main.onStack.Load() {
		t.Fatal("the device read ran off the caller's goroutine")
	}
}

// TestGrayLadderConcurrentReaders runs breakers-on reads from several
// goroutines at once through a brownout of the main, so health scores,
// breaker transitions and the hedge cap are updated concurrently: every
// read must still return the right bytes, exactly one replica read must
// serve each call, and hedges must stay within the cap.
func TestGrayLadderConcurrentReaders(t *testing.T) {
	s, faulty := newSet(t, 2)
	clk := &vclock{}
	s.EnableBreakers(BreakerConfig{MinSlow: 500 * time.Millisecond, Cooldown: time.Second, Now: clk.Now})
	in := []byte("many readers, one ladder each")
	writeAll(t, s, in, 0)
	faulty[0].SetLatency(time.Second, 2*time.Second, 7, clk.Advance)

	const readers, each = 8, 50
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]byte, len(in))
			for i := 0; i < each; i++ {
				if err := s.ReadAt(out, 0); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(out, in) {
					t.Error("read returned wrong bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Reads(0) + s.Reads(1); got != readers*each {
		t.Fatalf("replicas served %d reads, want %d", got, readers*each)
	}
	if h, n := s.HedgedReads(), s.GrayLadderReads(); h*100 > n*DefaultHedgeRatePct {
		t.Fatalf("%d hedges across %d laddered reads breaks the %d%% cap", h, n, DefaultHedgeRatePct)
	}
}

// BenchmarkReadVerified is a verified read over two MemDisks, with the
// fail-stop order and with breakers on.
func BenchmarkReadVerified(b *testing.B) {
	for _, breakers := range []string{"off", "on"} {
		for _, sz := range []struct {
			name string
			size int
		}{{"4KiB", 4 << 10}, {"1MiB", 1 << 20}} {
			size := sz.size
			b.Run("breakers="+breakers+"/"+sz.name, func(b *testing.B) {
				devs := make([]Device, 2)
				for i := range devs {
					m, err := NewMem(512, int64(size/512))
					if err != nil {
						b.Fatal(err)
					}
					devs[i] = m
				}
				s, err := NewReplicaSet(devs...)
				if err != nil {
					b.Fatal(err)
				}
				if breakers == "on" {
					s.EnableBreakers(BreakerConfig{})
				}
				in := bytes.Repeat([]byte{0x5a}, size)
				if err := s.WriteAt(in, 0); err != nil {
					b.Fatal(err)
				}
				verify := crcVerify(crc32.Checksum(in, castagnoli))
				out := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.ReadVerified(nil, nil, out, 0, verify); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestHedgeRateCapEnforced pins the hard cap: with the EWMA ranking
// wanting a hedge on every read, only DefaultHedgeRatePct percent are granted;
// the rest go to the main as usual.
func TestHedgeRateCapEnforced(t *testing.T) {
	s, _ := newSet(t, 2)
	clk := &vclock{}
	s.EnableBreakers(BreakerConfig{
		MinSlow: 500 * time.Millisecond, // EWMAs below this never open the breaker
		Now:     clk.Now,
	})
	in := []byte("capped")
	writeAll(t, s, in, 0)
	out := make([]byte, len(in))

	const reads = 200
	for i := 0; i < reads; i++ {
		// Pin the scores each round: the main looks 400x slower, so the
		// ladder wants to hedge to replica 1 on every single read.
		s.brk[0].ewmaNs.Store(int64(400 * time.Millisecond))
		s.brk[1].ewmaNs.Store(int64(time.Millisecond))
		if err := s.ReadAt(out, 0); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	// At the default 5%: hedge h is granted once (h+1)*100 <= reads*5,
	// so 200 reads admit exactly 10 hedges.
	if got := s.HedgedReads(); got != reads*DefaultHedgeRatePct/100 {
		t.Fatalf("HedgedReads = %d over %d reads, want exactly %d (the %d%% cap)",
			got, reads, reads*DefaultHedgeRatePct/100, DefaultHedgeRatePct)
	}
	if got := s.Reads(0); got != reads-reads*DefaultHedgeRatePct/100 {
		t.Fatalf("main served %d reads, want %d (everything the cap refused)", got, reads-reads*DefaultHedgeRatePct/100)
	}
}

// TestBreakerOpenExcludedFromQuorum pins the commit-side rule: an open
// breaker's replica still receives every write but the P-FACTOR quorum
// is satisfied without it, so a full-sync commit does not wait for (or
// get failed by) the gray disk.
func TestBreakerOpenExcludedFromQuorum(t *testing.T) {
	s, faulty := newSet(t, 2)
	clk := &vclock{}
	s.EnableBreakers(BreakerConfig{
		MinSlow:  500 * time.Millisecond,
		Cooldown: time.Hour,
		Now:      clk.Now,
	})
	in := []byte("quorum without the gray disk")
	writeAll(t, s, in, 0)
	faulty[0].SetLatency(2*time.Second, 2*time.Second, 1, clk.Advance)
	out := make([]byte, len(in))
	for i := 0; i < DefaultSlowStreak; i++ {
		if err := s.ReadAt(out, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.BreakerState(0) != "open" {
		t.Fatal("setup: breaker(0) did not open")
	}

	// Full-sync write: quorum clamps to the one eligible replica, the
	// open-breaker replica gets the write in the background.
	p := []byte("written during brownout")
	if err := s.WriteAt(p, 2048); err != nil {
		t.Fatalf("WriteAt with open breaker: %v", err)
	}
	s.Drain()
	got := make([]byte, len(p))
	for i := 0; i < 2; i++ {
		if err := s.Device(i).ReadAt(got, 2048); err != nil {
			t.Fatalf("replica %d readback: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("replica %d missed the brownout write", i)
		}
	}
}

// TestFaultyLatencySeededAndSunk pins the injector itself: the delays
// are drawn from a seeded range and delivered to the sink, never slept.
func TestFaultyLatencySeededAndSunk(t *testing.T) {
	mem := newMem(t, 512, 8)
	d := NewFaulty(mem)
	var got []time.Duration
	d.SetLatency(10*time.Millisecond, 20*time.Millisecond, 42, func(lat time.Duration) { got = append(got, lat) })
	buf := make([]byte, 512)
	for i := 0; i < 4; i++ {
		if err := d.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 4 {
		t.Fatalf("sink saw %d delays, want 4", len(got))
	}
	for i, lat := range got {
		if lat < 10*time.Millisecond || lat > 20*time.Millisecond {
			t.Fatalf("delay %d = %v, outside [10ms, 20ms]", i, lat)
		}
	}
	// Same seed, same sequence.
	var again []time.Duration
	d.SetLatency(10*time.Millisecond, 20*time.Millisecond, 42, func(lat time.Duration) { again = append(again, lat) })
	for i := 0; i < 4; i++ {
		if err := d.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("re-seeded sequence diverged at %d: %v vs %v", i, got[i], again[i])
		}
	}
	// Disarm: the sink stops seeing ops.
	d.SetLatency(0, 0, 0, nil)
	n := len(again)
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if len(again) != n {
		t.Fatal("disarmed injector still delivered a delay")
	}
}

// TestFaultyStallGate pins the stuck-op mode: a stalled read parks until
// released, WaitStalled observes it parked, and Heal also releases.
func TestFaultyStallGate(t *testing.T) {
	mem := newMem(t, 512, 8)
	d := NewFaulty(mem)
	d.StallNextReads(1)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 512)
		done <- d.ReadAt(buf, 0)
	}()
	d.WaitStalled(1)
	select {
	case err := <-done:
		t.Fatalf("stalled read returned early: %v", err)
	default:
	}
	d.ReleaseStalled()
	if err := <-done; err != nil {
		t.Fatalf("released read: %v", err)
	}

	// Heal releases too, so a stuck disk can always be un-stuck.
	d.StallNextReads(1)
	go func() {
		buf := make([]byte, 512)
		done <- d.ReadAt(buf, 0)
	}()
	d.WaitStalled(1)
	d.Heal()
	if err := <-done; err != nil {
		t.Fatalf("read released by Heal: %v", err)
	}
}
