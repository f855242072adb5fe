// Package trace is the server's per-request tracing subsystem: wire-
// propagated 64-bit trace IDs, fixed-size span records emitted from every
// layer (rpc, engine, cache, disk), an always-on flight recorder holding
// the last N completed traces in fixed memory, and a slow-request log.
//
// The stats registry (PR 2) answers "how much"; this package answers "why
// was THIS request slow". The paper's whole-file operations map one RPC to
// one clean span tree — rpc → capability check → cache hit/fault → disk →
// replica fan-out — so a trace here is small and bounded: at most MaxSpans
// spans of fixed size, recorded into a pre-allocated per-connection arena
// with no allocation and no locking on the hot path. A Ctx (and every
// method on it) is nil-safe, so untraced call sites pay a single
// predictable branch.
//
// The package is stdlib-only and imports nothing from the rest of the
// module, so every layer can use it without import cycles.
package trace

import "time"

// Layer identifies which server layer emitted a span.
type Layer uint8

// Span layers, ordered top (network) to bottom (storage).
const (
	LayerRPC Layer = iota
	LayerEngine
	LayerCache
	LayerDisk
	layerCount
)

var layerNames = [layerCount]string{"rpc", "engine", "cache", "disk"}

// String returns the layer's lowercase name ("rpc", "engine", ...).
func (l Layer) String() string {
	if l < layerCount {
		return layerNames[l]
	}
	return "layer?"
}

// Op identifies what a span measures.
type Op uint8

// Span operations.
const (
	OpRequest Op = iota // root span: one RPC dispatch
	OpCreate
	OpRead
	OpReadRange
	OpSize
	OpDelete
	OpModify
	OpAppend
	OpVerify        // capability check
	OpCacheLookup   // cache hit/miss probe
	OpCacheInsert   // populate after fault or create
	OpFault         // whole-file load, possibly merged with peers
	OpDiskRead      // one replica ReadAt
	OpReplicaCommit // one replica's share of a commit
	OpTrace         // TRACE RPC serving itself
	OpDiskRepair    // self-heal rewrite of a bad extent on one replica
	OpPromote       // a new main replica promoted after a demotion
	OpScrub         // one scrub comparison of a file across replicas
	OpSalvage       // SALVAGE RPC serving itself
	OpRecover       // online replica recovery (catch-up copy)
	OpAdmit         // admission-control decision (Status busy when shed)
	OpWatch         // WATCH RPC streaming telemetry updates
	OpHedge         // hedged read launched against a backup replica
	opCount
)

var opNames = [opCount]string{
	"request", "create", "read", "read-range", "size", "delete",
	"modify", "append", "verify", "cache-lookup", "cache-insert",
	"fault", "disk-read", "replica-commit", "trace",
	"disk-repair", "promote", "scrub", "salvage", "recover", "admit",
	"watch", "hedge",
}

// String returns the op's lowercase name ("read", "fault", ...).
func (o Op) String() string {
	if o < opCount {
		return opNames[o]
	}
	return "op?"
}

// MaxSpans bounds one trace's span arena. A whole-file operation on a
// 4-replica set needs ~10 spans; 48 leaves room for retries and fan-out.
const MaxSpans = 48

// NoParent marks a root span's Parent field.
const NoParent = ^uint16(0)

// DurPending is the Dur of a span that was still open (or deliberately
// left open, e.g. a replica commit that had not settled) when the trace
// finished.
const DurPending = int64(-1)

// Cache-hit attribute values for Span.CacheHit.
const (
	CacheNA   = int8(0) // span does not involve the cache
	CacheHit  = int8(1)
	CacheMiss = int8(2)
)

// Span is one timed operation inside a trace. It is a fixed-size value —
// no pointers, no strings — so an arena of them costs nothing to reuse.
// Attribute fields use zero/negative sentinels for "not set" (Replica -1,
// PFactor 0, CacheHit CacheNA) because a span never knows which
// attributes its op will need.
type Span struct {
	ID     uint16
	Parent uint16 // NoParent for the root
	Layer  Layer
	Op     Op

	Start int64 // wall clock, Unix nanoseconds
	Dur   int64 // nanoseconds; DurPending while open

	// Attributes. Callers write them directly on the *Span returned by
	// Begin; unset fields keep their sentinel.
	Cmd      uint32 // RPC command code (root span)
	Inode    uint32
	Bytes    int64
	PFactor  int8
	Replica  int8 // -1: not a per-replica span
	CacheHit int8 // CacheNA, CacheHit, CacheMiss
	Merged   bool // fault coalesced onto another request's load
	Status   int32
}

// Trace is one request's completed span set. It is a fixed-size value so
// the flight recorder can copy it in and out of ring slots without
// allocating.
type Trace struct {
	ID      uint64
	Start   int64 // root span start, Unix nanoseconds
	Dropped bool  // true if the arena overflowed and spans were lost
	N       int   // number of valid entries in Spans
	Spans   [MaxSpans]Span
}

// Root returns the root span (parent == NoParent), or nil if the trace is
// empty.
func (t *Trace) Root() *Span {
	for i := 0; i < t.N; i++ {
		if t.Spans[i].Parent == NoParent {
			return &t.Spans[i]
		}
	}
	return nil
}

// Ctx is a per-connection span arena. One goroutine owns a Ctx at a time
// (the connection's request loop); it is reset per request with Reset and
// flushed to the recorder with Finish. All methods are nil-safe: a nil
// *Ctx records nothing and returns nil spans, so untraced paths share
// code with traced ones.
//
// The arena is pre-allocated: Begin/End/Finish perform no allocation.
type Ctx struct {
	rec *Recorder
	t   Trace
	// starts carries the monotonic start time of each open span (the
	// Span itself stores only wall-clock nanos; durations must come from
	// the monotonic clock).
	starts [MaxSpans]time.Time

	// Deadline budget (see deadline.go). deadlineAt is the absolute
	// instant, in nanoseconds of deadlineNow's timeline, past which the
	// request should be abandoned; 0 means no deadline is armed.
	deadlineAt  int64
	deadlineNow func() int64

	// finished is set by Finish and cleared by Reset: the request's trace
	// has been published, and a span opened afterwards (a handler still
	// running behind its final reply frame) must not start a second one.
	finished bool
}

// Reset arms the arena for a new request with the given wire trace ID.
// Any deadline armed for the previous request is cleared.
func (c *Ctx) Reset(id uint64) {
	if c == nil {
		return
	}
	c.t.ID = id
	c.t.Start = 0
	c.t.Dropped = false
	c.t.N = 0
	c.deadlineAt = 0
	c.deadlineNow = nil
	c.finished = false
}

// Active reports whether the arena is armed (nil-safe). Layers can use it
// to skip attribute computation that only feeds spans.
func (c *Ctx) Active() bool { return c != nil }

// TraceID returns the armed trace ID (0 when c is nil or unarmed) —
// what metric exemplars record so a histogram outlier names its trace.
func (c *Ctx) TraceID() uint64 {
	if c == nil {
		return 0
	}
	return c.t.ID
}

// Begin opens a span under parent (nil parent makes a root span) and
// returns it for attribute writes. Returns nil if c is nil, the arena is
// full, or the trace was already published (Finish without a Reset since);
// End(nil) is a no-op, so call sites never branch.
func (c *Ctx) Begin(parent *Span, layer Layer, op Op) *Span {
	if c == nil || c.finished {
		return nil // no clock read for an untraced request
	}
	return c.BeginAt(parent, layer, op, time.Now())
}

// BeginAt is Begin for a span that starts at now, a time the caller has
// read already (the dispatch layer's request start also feeds its latency
// histogram, so the one clock read serves both).
func (c *Ctx) BeginAt(parent *Span, layer Layer, op Op, now time.Time) *Span {
	if c == nil || c.finished {
		return nil
	}
	if c.t.N >= MaxSpans {
		c.t.Dropped = true
		return nil
	}
	i := c.t.N
	c.t.N = i + 1
	sp := &c.t.Spans[i]
	*sp = Span{
		ID:      uint16(i),
		Parent:  NoParent,
		Layer:   layer,
		Op:      op,
		Start:   now.UnixNano(),
		Dur:     DurPending,
		Replica: -1,
	}
	if parent != nil {
		sp.Parent = parent.ID
	}
	if sp.Parent == NoParent {
		c.t.Start = sp.Start
	}
	c.starts[i] = now
	return sp
}

// End closes the span, stamping its duration from the monotonic clock.
// No-op on a nil span, a nil Ctx, or a trace already published.
func (c *Ctx) End(sp *Span) {
	if c == nil || sp == nil || c.finished {
		return
	}
	sp.Dur = int64(time.Since(c.starts[sp.ID]))
}

// Add appends an already-measured span under parent and returns it: a
// point event (dur 0) or a timing the caller took itself. Its callers are
// a replica promotion, the predictive hedge's choice of replica, a disk
// repair write, a commit's pending background replicas and an admission
// shed. A dur of DurPending marks work still in flight when the trace
// finished — the background replicas.
func (c *Ctx) Add(parent *Span, layer Layer, op Op, start time.Time, dur int64) *Span {
	sp := c.BeginAt(parent, layer, op, start)
	if sp == nil {
		return nil
	}
	sp.Dur = dur
	return sp
}

// Finish flushes the completed trace to the recorder's rings and disarms
// the arena until the next Reset: later Begins record nothing and a second
// Finish is a no-op, so the dispatch layer can publish ahead of the final
// reply frame while the arena's owner still calls Finish unconditionally.
// It is the only Ctx method that touches shared state, and it runs once
// per request, off the per-span hot path.
func (c *Ctx) Finish() {
	if c == nil {
		return
	}
	c.finished = true
	if c.rec == nil || c.t.N == 0 {
		return
	}
	c.rec.record(&c.t)
	c.t.N = 0
}
