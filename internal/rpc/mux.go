package rpc

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// Mux routes transactions to the Handler registered for each server port
// and performs at-most-once duplicate suppression: a retried transaction
// (same non-zero transaction ID) returns the cached reply instead of
// re-executing the handler, so a create retried after a lost reply does not
// create the file twice.
//
// When a trace recorder is attached, every dispatch opens a root span
// (layer rpc, op request) in the caller's span arena; stream handlers
// (RegisterStream) receive the arena and the root span so lower layers can
// hang their spans under it.
type Mux struct {
	mu            sync.Mutex
	handlers      map[capability.Port]muxEntry // guarded by mu
	dedup         map[uint64]cachedReply       // guarded by mu
	order         *list.List                   // guarded by mu; txids in arrival order, for bounded eviction
	maxDedup      int                          // immutable after construction
	maxDedupBytes int64                        // immutable after construction (see SetDedupBytes)
	dedupBytes    int64                        // guarded by mu; retained reply payload bytes
	metrics       *muxMetrics                  // guarded by mu (the pointed-to state is immutable)
	rec           *trace.Recorder              // guarded by mu (pointer swap only)
	timeNow       func() int64                 // guarded by mu (pointer swap only; see SetNow)

	// Dispatch-path telemetry, atomics so the hot path takes no lock.
	// AttachMetrics exposes them as rpc.* gauges.
	bytesOut       atomic.Int64 // reply payload bytes handed to transports
	pinsHeld       atomic.Int64 // owned (pin-backed) reply payloads currently over a write
	ownedReplies   atomic.Int64 // frames written from a borrowed payload (zero-copy serves)
	dedupCopied    atomic.Int64 // bytes copied by the dedup cache's copy-on-retain
	dedupEvictions atomic.Int64 // entries evicted to stay within the count/byte budget
}

// muxEntry is one registered server: exactly one of plain/stream is set,
// and place only beside stream.
type muxEntry struct {
	plain  Handler
	stream StreamHandler
	place  Placer
}

// Placement is memory a handler set aside for one request's payload
// before the payload arrived: the transport reads (TCP) or copies (Local)
// the payload straight into Bytes and hands Bytes to the handler as the
// payload. The handler may adopt the placement — keep the bytes, as a
// create keeps the file it was sent — and whatever it did not adopt the
// rpc layer gives back with Abandon once the dispatch is over, or when
// the payload never fully arrived. Abandon does nothing to an adopted
// placement, and a second Abandon nothing at all.
type Placement interface {
	Bytes() []byte // exactly the payload's length
	Abandon()
}

// Placer names where a request's payload goes, once the request's header
// and payload length are known: a Placement, or nil for the transport's
// own buffer.
type Placer func(req Header, n int) Placement

// abandon gives back pl unless its handler adopted it; nil is a no-op.
func abandon(pl Placement) {
	if pl != nil {
		pl.Abandon()
	}
}

type cachedReply struct {
	hdr     Header
	payload []byte
	elem    *list.Element
}

// DefaultDedupBytes is the default budget on total reply payload bytes
// the duplicate-suppression cache may retain. Before the byte budget the
// cache was bounded only by entry count, so a burst of large-read replies
// could pin maxDedup megabyte payloads in RAM indefinitely.
const DefaultDedupBytes = 16 << 20

// NewMux returns an empty Mux. maxDedup bounds the duplicate-suppression
// cache (0 means a sensible default).
func NewMux(maxDedup int) *Mux {
	if maxDedup <= 0 {
		maxDedup = 4096
	}
	return &Mux{
		handlers:      make(map[capability.Port]muxEntry),
		dedup:         make(map[uint64]cachedReply),
		order:         list.New(),
		maxDedup:      maxDedup,
		maxDedupBytes: DefaultDedupBytes,
	}
}

// SetDedupBytes overrides the duplicate-suppression cache's retained-byte
// budget (0 restores the default). Call before serving; the budget is not
// synchronized against in-flight dispatches.
func (m *Mux) SetDedupBytes(n int64) {
	if n <= 0 {
		n = DefaultDedupBytes
	}
	m.maxDedupBytes = n
}

// retainLocked remembers one reply for duplicate replay, evicting oldest
// entries until both the entry count and the byte budget hold. Replies
// larger than the whole budget are not retained at all: a replayed
// transaction of that size is a re-executed read, which is idempotent.
// Caller holds m.mu.
func (m *Mux) retainLocked(txid uint64, hdr Header, payload []byte) {
	if _, dup := m.dedup[txid]; dup {
		return
	}
	n := int64(len(payload))
	if n > m.maxDedupBytes {
		return
	}
	for m.order.Len() > 0 && (m.order.Len() >= m.maxDedup || m.dedupBytes+n > m.maxDedupBytes) {
		oldest := m.order.Front()
		m.order.Remove(oldest)
		old := oldest.Value.(uint64)
		m.dedupBytes -= int64(len(m.dedup[old].payload))
		delete(m.dedup, old)
		m.dedupEvictions.Add(1)
	}
	elem := m.order.PushBack(txid)
	m.dedup[txid] = cachedReply{hdr: hdr, payload: payload, elem: elem}
	m.dedupBytes += n
}

// Register installs h as the server for port. Registering a port twice
// replaces the handler (used when restarting a server in place).
func (m *Mux) Register(port capability.Port, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[port] = muxEntry{plain: h}
}

// RegisterPlaced installs sh as the server for port, as RegisterStream
// does, with place naming where the port's request payloads are read to.
func (m *Mux) RegisterPlaced(port capability.Port, sh StreamHandler, place Placer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[port] = muxEntry{stream: sh, place: place}
}

// place asks port's Placer where a request's n-byte payload goes; nil
// means the transport's own buffer, as it does for an empty payload, a
// port with no Placer and a retry whose reply is retained: dispatch
// replays that reply and never runs the handler, so a placement would
// only be given back, after making room it did not need.
func (m *Mux) place(port capability.Port, txid uint64, req Header, n int) Placement {
	if n == 0 {
		return nil
	}
	m.mu.Lock()
	place := m.handlers[port].place
	if _, dup := m.dedup[txid]; dup && txid != 0 {
		place = nil
	}
	m.mu.Unlock()
	if place == nil {
		return nil
	}
	return place(req, n)
}

// Unregister removes the server for port.
func (m *Mux) Unregister(port capability.Port) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.handlers, port)
}

// Ports returns the currently served ports.
func (m *Mux) Ports() []capability.Port {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]capability.Port, 0, len(m.handlers))
	for p := range m.handlers {
		out = append(out, p)
	}
	return out
}

// AttachRecorder wires the flight recorder into the dispatch path: from
// now on in-process dispatches (Local transports) record traces, and the
// TCP server borrows per-connection arenas from it.
func (m *Mux) AttachRecorder(rec *trace.Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rec = rec
}

// Recorder returns the attached flight recorder (nil if none).
func (m *Mux) Recorder() *trace.Recorder {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rec
}

// SetNow overrides the time source deadline budgets are measured
// against (nil restores the wall clock). Virtual-clock worlds inject
// their clock here so deadline sheds are deterministic under test.
func (m *Mux) SetNow(now func() int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.timeNow = now
}

// nowNanos is the deadline time source handed to trace.Ctx.ArmDeadline:
// the injected clock when set, otherwise the wall clock.
func (m *Mux) nowNanos() int64 {
	m.mu.Lock()
	now := m.timeNow
	m.mu.Unlock()
	if now != nil {
		return now()
	}
	return time.Now().UnixNano()
}

// DedupLen reports the current size of the duplicate-suppression cache.
func (m *Mux) DedupLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dedup)
}

// DedupBytes reports the reply payload bytes currently retained by the
// duplicate-suppression cache.
func (m *Mux) DedupBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dedupBytes
}

// DedupEvictions reports entries evicted from the duplicate-suppression
// cache to stay within its count and byte budgets.
func (m *Mux) DedupEvictions() int64 { return m.dedupEvictions.Load() }

// BytesOut reports total reply payload bytes handed to transports.
func (m *Mux) BytesOut() int64 { return m.bytesOut.Load() }

// OwnedReplies reports reply frames written from borrowed (pin-backed)
// payloads — the zero-copy serves.
func (m *Mux) OwnedReplies() int64 { return m.ownedReplies.Load() }

// PinsHeld reports borrowed reply payloads currently held over a write.
func (m *Mux) PinsHeld() int64 { return m.pinsHeld.Load() }

// DedupCopiedBytes reports bytes the dedup cache copied on retain
// (borrowed payloads only; reply-owned payloads are retained as-is).
func (m *Mux) DedupCopiedBytes() int64 { return m.dedupCopied.Load() }
