package trace

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Default ring capacities. Fixed at construction: the recorder's memory
// footprint is capacity * sizeof(Trace) and never grows.
const (
	DefaultRecentTraces = 256
	DefaultSlowTraces   = 64
)

// slot is one ring entry. ver is a claim word: even = stable, odd =
// someone (writer or reader) owns the slot. Writers and readers both
// claim with a CAS and back off on failure instead of blocking, so the
// ring is non-blocking under contention and every access to t is ordered
// by the atomic — no torn traces, clean under the race detector.
type slot struct {
	ver atomic.Uint64
	t   Trace
}

// ring is a fixed-size overwrite-oldest trace buffer.
type ring struct {
	slots []slot
	next  atomic.Uint64
}

func newRing(n int) ring {
	if n < 1 {
		n = 1
	}
	return ring{slots: make([]slot, n)}
}

// put copies t's header and its N valid spans into the next slot; the
// spans past N keep an older trace's bytes, which every reader bounds by
// N. Returns false (dropping t) if the slot is momentarily claimed by a
// reader or a colliding writer — overwriting history is acceptable,
// blocking the request path is not.
func (r *ring) put(t *Trace) bool {
	i := r.next.Add(1) - 1
	s := &r.slots[i%uint64(len(r.slots))]
	v := s.ver.Load()
	if v&1 != 0 || !s.ver.CompareAndSwap(v, v+1) {
		return false
	}
	s.t.ID, s.t.Start, s.t.Dropped, s.t.N = t.ID, t.Start, t.Dropped, t.N
	copy(s.t.Spans[:t.N], t.Spans[:t.N])
	s.ver.Store(v + 2)
	return true
}

// snapshot appends a copy of every stable slot to dst, oldest first by
// root start time. Slots claimed mid-copy are skipped, not waited on.
func (r *ring) snapshot(dst []Trace) []Trace {
	for i := range r.slots {
		s := &r.slots[i]
		v := s.ver.Load()
		if v == 0 || v&1 != 0 || !s.ver.CompareAndSwap(v, v+1) {
			continue
		}
		dst = append(dst, s.t)
		s.ver.Store(v)
	}
	sortTracesByStart(dst)
	return dst
}

func sortTracesByStart(ts []Trace) {
	// Insertion sort: rings hold a few hundred entries at most and are
	// already mostly ordered; avoids pulling in sort's interface boxing.
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j-1].Start > ts[j].Start; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

// Recorder is the flight recorder: an always-on pair of trace rings
// (recent and slow) plus an optional slow-request log. One Recorder
// serves the whole process; connections borrow Ctx arenas from it.
type Recorder struct {
	recent ring
	slow   ring

	// slowNS is the slow-request threshold in nanoseconds. 0 disables
	// slow classification.
	slowNS atomic.Int64

	slowSeen atomic.Int64 // traces classified slow
	dropped  atomic.Int64 // ring-slot collisions (trace copy lost)

	localID atomic.Uint64 // server-assigned trace IDs (see NextLocalID)

	ctxPool sync.Pool

	logMu     sync.Mutex
	logClosed bool       // guarded by logMu
	logCh     chan Trace // guarded by logMu (send side; drain owns receive)
	logDone   chan struct{}
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithSlowThreshold sets the slow-request threshold. Traces whose root
// span duration meets or exceeds d go to the slow ring (and the slow log,
// if one is attached). d <= 0 disables slow classification.
func WithSlowThreshold(d time.Duration) Option {
	return func(r *Recorder) { r.slowNS.Store(int64(d)) }
}

// WithSlowLog attaches w as the slow-request log: every slow trace is
// written to w as one line of JSON by a background drain goroutine, so
// log I/O never runs on a request goroutine. Close stops the goroutine.
func WithSlowLog(w io.Writer) Option {
	return func(r *Recorder) {
		r.logCh = make(chan Trace, 32)
		r.logDone = make(chan struct{})
		go drainSlowLog(w, r.logCh, r.logDone)
	}
}

// WithCapacity overrides the recent/slow ring sizes (values < 1 become 1).
func WithCapacity(recent, slow int) Option {
	return func(r *Recorder) {
		r.recent = newRing(recent)
		r.slow = newRing(slow)
	}
}

// NewRecorder returns a recorder with default ring sizes and no slow log.
func NewRecorder(opts ...Option) *Recorder {
	r := &Recorder{
		recent: newRing(DefaultRecentTraces),
		slow:   newRing(DefaultSlowTraces),
	}
	for _, o := range opts {
		o(r)
	}
	r.ctxPool.New = func() any { return &Ctx{rec: r} }
	return r
}

// drainSlowLog writes queued slow traces until ch is closed (by
// Recorder.Close). The two-value receive is the loop's only exit.
func drainSlowLog(w io.Writer, ch chan Trace, done chan struct{}) {
	defer close(done)
	for {
		t, ok := <-ch
		if !ok {
			return
		}
		line, err := appendJSONLine(nil, &t)
		if err != nil {
			continue
		}
		w.Write(line)
	}
}

// AcquireCtx borrows a span arena. Connections hold one Ctx for their
// lifetime and Reset it per request; return it with ReleaseCtx.
func (r *Recorder) AcquireCtx() *Ctx {
	if r == nil {
		return nil
	}
	c := r.ctxPool.Get().(*Ctx)
	c.t.N = 0
	c.finished = false
	return c
}

// ReleaseCtx returns a Ctx to the pool. Nil-safe.
func (r *Recorder) ReleaseCtx(c *Ctx) {
	if r == nil || c == nil {
		return
	}
	r.ctxPool.Put(c)
}

// LocalIDBit is set on trace IDs the server assigned itself because the
// client did not propagate one, keeping them distinguishable from (and
// collision-free with) client-generated IDs, which have the top bit clear.
const LocalIDBit = uint64(1) << 63

// NextLocalID returns a fresh server-assigned trace ID.
func (r *Recorder) NextLocalID() uint64 { return LocalIDBit | r.localID.Add(1) }

// SetSlowThreshold adjusts the slow threshold at runtime.
func (r *Recorder) SetSlowThreshold(d time.Duration) { r.slowNS.Store(int64(d)) }

// SlowThreshold returns the current slow threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	return time.Duration(r.slowNS.Load())
}

// record files a finished trace: always into the recent ring, and into
// the slow ring (plus the slow log, non-blocking) when the root span
// meets the threshold. Called once per request by Ctx.Finish.
func (r *Recorder) record(t *Trace) {
	if !r.recent.put(t) {
		r.dropped.Add(1)
	}

	thr := r.slowNS.Load()
	if thr <= 0 {
		return
	}
	root := t.Root()
	if root == nil || root.Dur < thr {
		return
	}
	r.slowSeen.Add(1)
	if !r.slow.put(t) {
		r.dropped.Add(1)
	}
	r.logMu.Lock()
	if r.logCh != nil && !r.logClosed {
		select {
		case r.logCh <- *t:
		default: // log writer is behind; drop rather than stall
			r.dropped.Add(1)
		}
	}
	r.logMu.Unlock()
}

// Recent returns copies of the traces currently in the recent ring,
// oldest first.
func (r *Recorder) Recent() []Trace {
	if r == nil {
		return nil
	}
	return r.recent.snapshot(nil)
}

// Slow returns copies of the traces currently in the slow ring, oldest
// first.
func (r *Recorder) Slow() []Trace {
	if r == nil {
		return nil
	}
	return r.slow.snapshot(nil)
}

// Recorded returns the number of traces flushed since start, dropped
// ones included: every flush claims a position in the recent ring.
func (r *Recorder) Recorded() int64 { return int64(r.recent.next.Load()) }

// SlowCount returns the number of traces classified slow since start.
func (r *Recorder) SlowCount() int64 { return r.slowSeen.Load() }

// DroppedCount returns ring-collision and log-backpressure drops.
func (r *Recorder) DroppedCount() int64 { return r.dropped.Load() }

// Close stops the slow-log drain goroutine (if any) and waits for it to
// finish the queued writes. The recorder's rings stay readable.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.logMu.Lock()
	ch := r.logCh
	closed := r.logClosed
	r.logClosed = true
	r.logMu.Unlock()
	if ch == nil || closed {
		return
	}
	close(ch)
	<-r.logDone
}
