package rpc

import (
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// This file adds reply-payload ownership and multi-frame streaming to the
// dispatch path. The classic Handler contract forces every reply payload
// to be owned by the reply (the duplicate-suppression cache retains it),
// which costs a full copy on the read hot path: the engine copies the file
// out of its pinned cache view before handing it to the RPC layer. A
// stream handler instead emits frames whose payloads may be *borrowed* —
// backed by a resource (a pinned cache view lease) that the RPC layer
// releases only after the frame's bytes have been written to the socket.
// The dedup cache copies on retain instead, bounded by a byte budget.

// Releaser is a resource backing a borrowed reply payload — typically a
// pinned cache-view lease whose bytes the payload aliases. Release must
// be safe to call exactly once per hand-off and idempotent implementations
// are encouraged.
type Releaser interface {
	Release()
}

// Payload is one reply frame's bytes plus optional ownership. When Owner
// is non-nil the bytes are borrowed from it: the RPC layer releases Owner
// after the frame has been written (or the write abandoned), never before
// — this is how a zero-copy reply keeps its cache pin alive exactly until
// the payload has left for the kernel. When Owner is nil the bytes follow
// the classic Handler contract (owned by the reply, retainable as-is).
//
// After, set on a transaction's final frame, is work the reply does not
// wait for (CREATE's write-behind). DispatchStream calls it once,
// last of all — the frame written or its write failed, metrics, trace and
// dedup entry done — on the dispatching goroutine, so a TCP connection
// reads its next request only after it; Local, whose reply is its return
// value, starts it on a goroutine.
type Payload struct {
	Data  []byte
	Owner Releaser
	After func()
}

// Plain wraps reply bytes with no backing resource attached.
func Plain(data []byte) Payload { return Payload{Data: data} }

// Owned hands data plus the resource backing it to the RPC layer. The
// caller must not touch data (or owner) after the emit call it passes the
// payload to returns: the resource is released inside the emitter.
func Owned(data []byte, owner Releaser) Payload { return Payload{Data: data, Owner: owner} }

// release returns the backing resource, if any.
func (p Payload) release() {
	if p.Owner != nil {
		p.Owner.Release()
	}
}

// Emitter writes one reply frame of a streamed transaction. last marks
// the final frame; single-frame commands emit exactly once with last
// true. The emitter assumes ownership of p's backing resource whether or
// not it returns an error, so handlers never release a payload they have
// emitted. A non-nil error means the client connection is gone: the
// handler should stop emitting and return.
type Emitter func(h Header, p Payload, last bool) error

// StreamHandler serves one transaction by emitting one or more reply
// frames. The request payload contract matches Handler: it must not be
// retained past the call, unless it is a Placement's bytes the handler
// adopts (RegisterPlaced). Errors are reported in-band, as a single
// emitted frame whose header carries the status.
type StreamHandler func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter)

// RegisterStream installs sh as the server for port. A stream handler
// receives the dispatch's span arena and root span (both nil when the
// dispatch is untraced) and may emit borrowed (Owned) payloads that the
// dispatch layer releases after writing. Local assembles the frames for a
// caller that asked for one reply.
func (m *Mux) RegisterStream(port capability.Port, sh StreamHandler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[port] = muxEntry{stream: sh}
}

// FrameSink receives one reply frame of a streamed dispatch. The data
// slice is only valid during the call (it may alias a pinned cache slot
// that is unpinned right after): the sink must write or copy it before
// returning. The TCP server's sink hands it to a vectored socket write,
// so the bytes travel cache -> kernel with no intermediate copy.
type FrameSink func(h Header, data []byte, last bool) error

// DispatchStream executes one transaction, delivering the reply as one or
// more frames through sink: the Mux's one dispatch, which the TCP server
// and Local both drive. A plain Handler's reply is one frame. Duplicate
// transactions replay the cached single-frame reply; multi-frame replies
// are never cached (the only multi-frame commands, READSTREAM and WATCH,
// are idempotent). The final frame's After runs last of all, on this
// goroutine. The returned error is transport-level: ErrNoServer for an
// unserved port, or the sink's own error propagated back.
func (m *Mux) DispatchStream(tc *trace.Ctx, port capability.Port, txid uint64, req Header, payload []byte, sink FrameSink) error {
	return m.serve(m.newStreamState(sink), tc, port, txid, req, payload, nil)
}

// serve is DispatchStream on a streamState its caller keeps across
// requests (a TCP connection): dispatch, abandon the payload's placement
// (pl, nil when the payload was not placed) unless the handler adopted it,
// then run the final frame's After.
func (m *Mux) serve(st *streamState, tc *trace.Ctx, port capability.Port, txid uint64, req Header, payload []byte, pl Placement) error {
	after, err := m.dispatch(st, tc, port, txid, req, payload)
	abandon(pl)
	if after != nil {
		after()
	}
	return err
}

// dispatch is DispatchStream up to the final frame's After, which it
// returns (nil when there is none) for the caller to run once the reply is
// out of its hands. st carries the sink; dispatch re-arms it for this
// request.
func (m *Mux) dispatch(st *streamState, tc *trace.Ctx, port capability.Port, txid uint64, req Header, payload []byte) (after func(), err error) {
	m.mu.Lock()
	e, ok := m.handlers[port]
	mm := m.metrics
	if !ok {
		m.mu.Unlock()
		return nil, ErrNoServer
	}
	if txid != 0 {
		if cached, dup := m.dedup[txid]; dup {
			m.mu.Unlock()
			m.replayStats(mm, tc, req, cached)
			tc.Finish() // publish before the reply, as streamState.emit does
			return nil, st.sink(cached.hdr, cached.payload, true)
		}
	}
	m.mu.Unlock()

	start := time.Now() // the root span's start and the latency histogram's
	root := tc.BeginAt(nil, trace.LayerRPC, trace.OpRequest, start)
	if root != nil {
		root.Cmd = req.Command
		root.Bytes = int64(len(payload))
	}
	st.arm(txid, tc, root)
	if e.stream != nil {
		e.stream(tc, root, req, payload, st.emitFn)
	} else {
		h, p := e.plain(req, payload)
		_ = st.emit(h, Plain(p), true) // a sink error is kept in st.werr
	}
	if st.frames == 0 && st.werr == nil {
		// A handler that emitted nothing is a bug; keep the wire sane.
		st.werr = st.emit(ReplyErr(StatusInternal), Payload{}, true)
	}
	if mm != nil {
		mm.record(req.Command, len(payload), st.bytes, st.hdr.Status, time.Since(start), tc.TraceID())
	}
	// For a dispatch that never reached its final frame's write; behind a
	// published trace (see emit) both are no-ops.
	if root != nil {
		root.Status = int32(st.hdr.Status)
	}
	tc.End(root)
	after, err = st.after, st.werr
	st.arm(0, nil, nil) // hold nothing of this request until the next
	return after, err
}

// streamState carries one streamed dispatch's bookkeeping across emits.
// A serving context that dispatches many requests keeps one: the sink and
// the emitter handed to stream handlers are bound once (newStreamState),
// and dispatch re-arms the rest per request, so a dispatch allocates
// neither.
type streamState struct {
	m      *Mux
	sink   FrameSink
	emitFn Emitter // st.emit

	txid uint64
	tc   *trace.Ctx
	root *trace.Span // the request's root span; nil when untraced

	frames int
	bytes  int // payload bytes across all frames
	hdr    Header
	werr   error  // first sink error; later emits are dropped
	after  func() // the final frame's Payload.After
}

// newStreamState binds sink and the emitter for dispatches through m.
func (m *Mux) newStreamState(sink FrameSink) *streamState {
	st := &streamState{m: m, sink: sink}
	st.emitFn = st.emit
	return st
}

// arm resets the per-request fields for one dispatch.
func (st *streamState) arm(txid uint64, tc *trace.Ctx, root *trace.Span) {
	st.txid, st.tc, st.root = txid, tc, root
	st.frames, st.bytes, st.hdr, st.werr, st.after = 0, 0, Header{}, nil, nil
}

// emit is the Emitter handed to stream handlers: it books the frame,
// retains a single-frame reply in the dedup cache and publishes the trace
// ahead of the final frame — a client that holds its reply, or retries on
// another connection while the write is still stuck, finds both — writes
// the frame through the sink, and releases the payload's backing resource
// after the write — the pin is held exactly over the write.
func (st *streamState) emit(h Header, p Payload, last bool) error {
	m := st.m
	if p.After != nil {
		st.after = p.After // kept whatever becomes of the write
	}
	if p.Owner != nil {
		m.pinsHeld.Add(1)
		m.ownedReplies.Add(1)
		defer func() {
			p.Owner.Release()
			m.pinsHeld.Add(-1)
		}()
	}
	if st.werr != nil {
		return st.werr
	}
	if st.frames == 0 {
		st.hdr = h
		// Copy-on-retain: a single-frame reply on a dedup-tracked
		// transaction is remembered for replay, but the payload may be
		// borrowed (dead after release), so the cache takes its own copy
		// — bounded by the byte budget, oversized replies just re-execute.
		if st.txid != 0 && last && int64(len(p.Data)) <= m.maxDedupBytes {
			retained := p.Data // reply-owned per the Handler contract, unless borrowed
			if p.Owner != nil {
				retained = append([]byte{}, p.Data...)
				m.dedupCopied.Add(int64(len(p.Data)))
			}
			m.mu.Lock()
			m.retainLocked(st.txid, h, retained)
			m.mu.Unlock()
		}
	}
	st.frames++
	st.bytes += len(p.Data)
	m.bytesOut.Add(int64(len(p.Data)))
	if last {
		// Publish the trace before the final frame goes out: once a client
		// holds its reply, its trace is in the recorder (request-then-
		// `bulletctl trace` and exemplar links depend on that order). The
		// root span therefore does not cover this frame's socket write; the
		// rpc.<op>.latency_ns histogram, recorded after the handler
		// returns, still does.
		if st.root != nil {
			st.root.Status = int32(st.hdr.Status)
		}
		st.tc.End(st.root)
		st.tc.Finish()
	}
	st.werr = st.sink(h, p.Data, last)
	return st.werr
}

// replayStats books a duplicate-transaction replay: counter, root span,
// outbound bytes.
func (m *Mux) replayStats(mm *muxMetrics, tc *trace.Ctx, req Header, cached cachedReply) {
	if mm != nil {
		mm.reg.Counter("rpc.dup_replays").Inc()
	}
	root := tc.Begin(nil, trace.LayerRPC, trace.OpRequest)
	if root != nil {
		root.Cmd = req.Command
		root.Status = int32(cached.hdr.Status)
	}
	tc.End(root)
	m.bytesOut.Add(int64(len(cached.payload)))
}
