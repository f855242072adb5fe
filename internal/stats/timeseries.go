package stats

import (
	"sync"
	"time"
)

// This file is the streaming half of the stats package: a Collector
// goroutine samples the whole registry on a fixed interval into a ring of
// snapshots, derives rates and windowed histogram summaries between
// consecutive samples, and fans the resulting Updates out to subscribers
// (the WATCH RPC, bulletctl top). Sampling reads only atomics and the
// registry's creation lock — never a hot-path lock — so a busy server
// pays nothing for being watched beyond the counters it already keeps.

// Default collector shape: 128 samples of history at one sample per
// second ≈ two minutes of per-metric time series in fixed memory.
const (
	DefaultRingSize = 128
	DefaultInterval = time.Second
)

// Rate is one counter's movement across one sampling window.
type Rate struct {
	Total  int64   `json:"total"` // cumulative value at the window's end
	Delta  int64   `json:"delta"` // increase across the window
	PerSec float64 `json:"per_sec"`
}

// Window is one histogram's delta across one sampling window: the bucket
// counts of the two samples subtracted, quantiles interpolated from the
// delta alone. Unlike the cumulative snapshot quantiles (which average
// over the process lifetime) these answer "how slow is it RIGHT NOW".
type Window struct {
	Count  int64   `json:"count"` // observations inside the window
	Sum    int64   `json:"sum"`
	PerSec float64 `json:"per_sec"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	P99    float64 `json:"p99"`
	P999   float64 `json:"p999"`
	// SlowTrace names the slowest exemplar recorded during (or after the
	// start of) the window — the trace ID to pull from the flight
	// recorder when the window's tail looks wrong. Empty when the
	// histogram carries no exemplars or none is recent enough.
	SlowTrace string `json:"slow_trace,omitempty"`
	SlowNS    int64  `json:"slow_ns,omitempty"`
}

// Update is one collector tick: everything that moved between two
// consecutive samples, plus absolute gauge levels. It is the WATCH RPC's
// frame payload and marshals to stable JSON (map keys sort).
type Update struct {
	Seq        uint64            `json:"seq"`       // 1 for the first derived update
	UnixNano   int64             `json:"unix_nano"` // wall clock at the window's end
	IntervalNS int64             `json:"interval_ns"`
	Counters   map[string]Rate   `json:"counters,omitempty"`
	Gauges     map[string]int64  `json:"gauges,omitempty"`
	Histograms map[string]Window `json:"histograms,omitempty"`
}

// Sample is one raw registry snapshot with its timestamp — one slot of
// the collector's ring.
type Sample struct {
	At   time.Time
	Snap Snapshot
}

// Collector periodically snapshots a Registry into a fixed-size ring and
// derives an Update per tick. One collector goroutine serves any number
// of subscribers; it never blocks on them (a slow subscriber drops
// updates, counted in telemetry.dropped_updates).
type Collector struct {
	reg      *Registry
	interval time.Duration
	size     int

	samples *Counter // telemetry.samples
	drops   *Counter // telemetry.dropped_updates

	mu      sync.Mutex
	ring    []Sample // guarded by mu; ring[next-1 mod size] is the newest
	updates []Update // guarded by mu; parallel ring of derived updates
	next    uint64   // guarded by mu; total samples taken
	derived uint64   // guarded by mu; total updates derived (= seq of newest)
	subs    map[int]chan Update
	subID   int
	closed  bool
	started bool // guarded by mu; whether Start's goroutine owns done

	stop chan struct{}
	done chan struct{}
}

// NewCollector builds a collector over reg. interval <= 0 picks
// DefaultInterval; size <= 0 picks DefaultRingSize. The collector
// registers its own health metrics (telemetry.*) in reg. Call Start to
// begin sampling and Close to stop.
func NewCollector(reg *Registry, interval time.Duration, size int) *Collector {
	if interval <= 0 {
		interval = DefaultInterval
	}
	if size <= 0 {
		size = DefaultRingSize
	}
	c := &Collector{
		reg:      reg,
		interval: interval,
		size:     size,
		ring:     make([]Sample, 0, size),
		updates:  make([]Update, 0, size),
		subs:     make(map[int]chan Update),
		samples:  reg.Counter("telemetry.samples"),
		drops:    reg.Counter("telemetry.dropped_updates"),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	reg.Gauge("telemetry.interval_ns").Set(int64(interval))
	reg.GaugeFunc("telemetry.watchers", func() int64 { return int64(c.Watchers()) })
	return c
}

// Interval returns the sampling interval.
func (c *Collector) Interval() time.Duration { return c.interval }

// Start takes the baseline sample and launches the sampling goroutine.
// The first tick happens one interval after Start, and its update covers
// [Start, Start+interval) rather than waiting two intervals. The baseline
// is taken before Start returns, so an explicit Tick after Start always
// follows it. Start more than once is a bug (the second goroutine would
// double-sample); it is not guarded.
func (c *Collector) Start() {
	c.mu.Lock()
	c.started = true
	c.mu.Unlock()
	c.Tick(time.Now())
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(c.interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.stop:
				return
			case now := <-ticker.C:
				c.Tick(now)
			}
		}
	}()
}

// Close stops the sampling goroutine and closes every subscriber
// channel; subscribers see their channel close and end their streams.
// Idempotent; safe to call before Start (the goroutine, if any, exits on
// its next tick).
func (c *Collector) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	started := c.started
	for id, ch := range c.subs {
		close(ch)
		delete(c.subs, id)
	}
	c.mu.Unlock()
	close(c.stop)
	// Only a Start()ed collector has a goroutine closing done; a
	// tick-driven one (tests, virtual clock) has nothing to wait for.
	if started {
		<-c.done
	}
}

// Tick takes one sample now: snapshot the registry, derive the update
// against the previous sample, store both in the rings, fan the update
// out. Exposed so tests (and the virtual-clock harness) can drive the
// collector without real time; Start's goroutine calls it on the ticker.
func (c *Collector) Tick(now time.Time) {
	snap := c.reg.Snapshot()
	c.samples.Inc()
	sample := Sample{At: now, Snap: snap}

	c.mu.Lock()
	var prev *Sample
	if c.next > 0 {
		p := c.ringAtLocked(c.next - 1)
		prev = &p
	}
	c.pushSampleLocked(sample)
	var u Update
	var have bool
	if prev != nil {
		u = deriveUpdate(prev, &sample, c.derived+1)
		c.derived++
		c.pushUpdateLocked(u)
		have = true
	}
	// Fan out while still holding mu: the sends are non-blocking (a full
	// subscriber drops the update), and holding the lock means Close can
	// never close a channel with a send in flight.
	if have {
		for _, ch := range c.subs {
			select {
			case ch <- u:
			default:
				c.drops.Inc()
			}
		}
	}
	c.mu.Unlock()
}

// pushSampleLocked appends to the sample ring, overwriting oldest. Caller
// holds mu.
func (c *Collector) pushSampleLocked(s Sample) {
	if len(c.ring) < c.size {
		c.ring = append(c.ring, s)
	} else {
		c.ring[c.next%uint64(c.size)] = s
	}
	c.next++
}

// pushUpdateLocked appends to the update ring, overwriting oldest. Caller
// holds mu.
func (c *Collector) pushUpdateLocked(u Update) {
	if len(c.updates) < c.size {
		c.updates = append(c.updates, u)
	} else {
		c.updates[(c.derived-1)%uint64(c.size)] = u
	}
}

// ringAtLocked returns the i-th sample ever taken (must still be in the ring).
// Caller holds mu.
func (c *Collector) ringAtLocked(i uint64) Sample {
	if len(c.ring) < c.size {
		return c.ring[i]
	}
	return c.ring[i%uint64(c.size)]
}

// Latest returns the newest derived update (ok false before two samples
// exist).
func (c *Collector) Latest() (Update, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.derived == 0 {
		return Update{}, false
	}
	return c.updates[(c.derived-1)%uint64(c.size)], true
}

// History returns up to n most recent updates, oldest first. n <= 0
// means all retained.
func (c *Collector) History(n int) []Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	have := len(c.updates)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Update, 0, n)
	for i := c.derived - uint64(n); i < c.derived; i++ {
		out = append(out, c.updates[i%uint64(c.size)])
	}
	return out
}

// Samples returns up to n most recent raw samples, oldest first — the
// per-metric time series (each metric's ring of periodic snapshots,
// viewed column-wise). n <= 0 means all retained.
func (c *Collector) Samples(n int) []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	have := len(c.ring)
	if n <= 0 || n > have {
		n = have
	}
	out := make([]Sample, 0, n)
	for i := c.next - uint64(n); i < c.next; i++ {
		out = append(out, c.ringAtLocked(i))
	}
	return out
}

// Subscription is one subscriber's live update feed. Close it to
// unsubscribe; the collector closes C when it shuts down.
type Subscription struct {
	C  <-chan Update
	id int
	c  *Collector
}

// Subscribe registers a live feed of updates. The channel holds a small
// buffer; a subscriber that falls behind loses updates (counted) rather
// than stalling the collector. On a closed collector the returned
// channel is already closed.
func (c *Collector) Subscribe() *Subscription {
	ch := make(chan Update, 4)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		close(ch)
		return &Subscription{C: ch, id: -1, c: c}
	}
	c.subID++
	id := c.subID
	c.subs[id] = ch
	return &Subscription{C: ch, id: id, c: c}
}

// Close unsubscribes. Idempotent; the channel is closed so a pending
// receive unblocks.
func (s *Subscription) Close() {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if ch, ok := s.c.subs[s.id]; ok {
		close(ch)
		delete(s.c.subs, s.id)
	}
}

// Watchers reports the live subscriber count.
func (c *Collector) Watchers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.subs)
}

// deriveUpdate computes the delta view between two consecutive samples.
func deriveUpdate(prev, cur *Sample, seq uint64) Update {
	dt := cur.At.Sub(prev.At)
	if dt <= 0 {
		dt = time.Nanosecond // degenerate clock; keep rates finite
	}
	secs := dt.Seconds()
	u := Update{
		Seq:        seq,
		UnixNano:   cur.At.UnixNano(),
		IntervalNS: int64(dt),
		Counters:   make(map[string]Rate, len(cur.Snap.Counters)),
		Gauges:     cur.Snap.Gauges,
		Histograms: make(map[string]Window, len(cur.Snap.Histograms)),
	}
	for name, total := range cur.Snap.Counters {
		delta := total - prev.Snap.Counters[name] // absent before = 0
		if delta < 0 {
			delta = 0 // a restarted metric source; clamp rather than report negative rates
		}
		u.Counters[name] = Rate{Total: total, Delta: delta, PerSec: float64(delta) / secs}
	}
	for name, hs := range cur.Snap.Histograms {
		u.Histograms[name] = deriveWindow(prev.Snap.Histograms[name], hs, prev.At.UnixNano(), secs)
	}
	return u
}

// deriveWindow subtracts two cumulative histogram snapshots into a
// windowed one. The window's quantiles interpolate over the delta bucket
// counts alone, clamped by the cumulative min/max (the tightest bounds
// known without per-window extremes). sinceNS gates exemplars: only
// those recorded at or after the window's start are "recent".
func deriveWindow(prev, cur HistogramSnapshot, sinceNS int64, secs float64) Window {
	d := HistogramSnapshot{
		Count:  cur.Count - prev.Count,
		Sum:    cur.Sum - prev.Sum,
		Min:    cur.Min,
		Max:    cur.Max,
		Bounds: cur.Bounds,
		Counts: make([]int64, len(cur.Counts)),
	}
	for i := range cur.Counts {
		c := cur.Counts[i]
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		if c < 0 {
			c = 0
		}
		d.Counts[i] = c
	}
	if d.Count < 0 {
		d.Count = 0
	}
	w := Window{
		Count:  d.Count,
		Sum:    d.Sum,
		PerSec: float64(d.Count) / secs,
		P50:    d.Quantile(0.50),
		P95:    d.Quantile(0.95),
		P99:    d.Quantile(0.99),
		P999:   d.Quantile(0.999),
	}
	for _, ex := range cur.Exemplars {
		if ex.UnixNano >= sinceNS && ex.Value >= w.SlowNS {
			w.SlowNS = ex.Value
			w.SlowTrace = ex.TraceID
		}
	}
	return w
}
