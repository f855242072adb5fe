package bulletsvc

import (
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// This file is the zero-copy/streaming half of the service: the stream
// dispatch entry point (HandleStream), the borrowed-payload READ and
// READ_RANGE replies, and the chunked READSTREAM command. The classic
// single-frame commands keep their HandleTraced bodies; HandleStream
// wraps them in one final frame.

// Chunk-size bounds for CmdReadStream. The request's Arg2 is a hint;
// zero picks the default and out-of-range hints are clamped.
const (
	streamChunkDefault = 256 << 10
	streamChunkMin     = 4 << 10
	streamChunkMax     = 4 << 20
)

// HandleStream processes one Bullet transaction, emitting one or more
// reply frames. READ and READ_RANGE replies borrow the engine's pinned
// cache bytes (the RPC layer writes them to the socket and releases the
// pin afterwards — zero payload copies); READSTREAM serves a file as a
// sequence of ranged frames off one pin; CREATE and CREATE-COMMIT reply
// once the P-FACTOR quorum holds the file and leave the rest of the
// write-through to the RPC layer as the reply's After; every other command
// is the classic HandleTraced body emitted as a single frame.
func (s *Service) HandleStream(tc *trace.Ctx, parent *trace.Span, req rpc.Header, payload []byte, emit rpc.Emitter) {
	switch req.Command {
	case CmdRead, CmdReadRange:
		release, ok := s.enter(tc, parent, req.Command, emit)
		if !ok {
			return
		}
		defer release()
		offset, n := int64(0), int64(-1)
		if req.Command == CmdReadRange {
			// Arg2 all-ones (n = -1) means "to the end of the file" — the
			// wire form of the engine's open-ended range.
			offset, n = int64(req.Arg), int64(req.Arg2)
		}
		lease, err := s.engine.ReadRangeViewTraced(tc, parent, req.Cap, offset, n)
		if err != nil {
			_ = emit(rpc.ReplyErr(StatusOf(err)), rpc.Plain(nil), true)
			return
		}
		// Ownership transfer: the RPC layer releases the lease once the
		// frame's bytes have been written.
		_ = emit(rpc.ReplyOK(), rpc.Owned(lease.Bytes(), lease), true)

	case CmdCreate, CmdCreateCommit:
		release, ok := s.enter(tc, parent, req.Command, emit)
		if !ok {
			return
		}
		defer release()
		data, pfactor := payload, int(req.Arg)
		if req.Command == CmdCreateCommit {
			if data, ok = s.sess.take(req.Arg); !ok {
				_ = emit(rpc.ReplyErr(rpc.StatusNotFound), rpc.Plain(nil), true)
				return
			}
			pfactor = int(req.Arg2)
		}
		//lint:ignore rightscheck CREATE mints the object and its capability; nothing pre-existing to check
		c, later, err := s.engine.CreateDeferred(tc, parent, data, pfactor)
		if err != nil {
			_ = emit(rpc.ReplyErr(StatusOf(err)), rpc.Plain(nil), true)
			return
		}
		_ = emit(rpc.Header{Status: rpc.StatusOK, Cap: c}, rpc.Payload{After: later}, true)

	case CmdReadStream:
		s.handleReadStream(tc, parent, req, emit)

	case CmdWatch:
		s.handleWatch(tc, parent, req, emit)

	default:
		h, p := s.HandleTraced(tc, parent, req, payload)
		_ = emit(h, rpc.Plain(p), true)
	}
}

// handleReadStream serves CmdReadStream: the file from Arg onward as a
// sequence of chunked frames, all cut from ONE pinned lease — the pin is
// held across the whole stream and released after the final frame's
// write. Each frame's header carries the chunk's file offset (Arg) and
// the file's total size (Arg2), so clients can preallocate and verify.
func (s *Service) handleReadStream(tc *trace.Ctx, parent *trace.Span, req rpc.Header, emit rpc.Emitter) {
	release, ok := s.enter(tc, parent, req.Command, emit)
	if !ok {
		return
	}
	defer release()
	chunk := int64(req.Arg2)
	if chunk == 0 {
		chunk = streamChunkDefault
	} else if chunk < streamChunkMin {
		chunk = streamChunkMin
	} else if chunk > streamChunkMax {
		chunk = streamChunkMax
	}
	offset := int64(req.Arg)
	lease, err := s.engine.ReadRangeViewTraced(tc, parent, req.Cap, offset, -1)
	if err != nil {
		_ = emit(rpc.ReplyErr(StatusOf(err)), rpc.Plain(nil), true)
		return
	}
	defer lease.Release()
	data := lease.Bytes()
	size := lease.Size()
	if len(data) == 0 {
		_ = emit(rpc.Header{Status: rpc.StatusOK, Arg: uint64(offset), Arg2: uint64(size)}, rpc.Plain(nil), true)
		return
	}
	for off := int64(0); off < int64(len(data)); off += chunk {
		end := off + chunk
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		h := rpc.Header{Status: rpc.StatusOK, Arg: uint64(offset + off), Arg2: uint64(size)}
		if emit(h, rpc.Plain(data[off:end]), end == int64(len(data))) != nil {
			return // client gone; stop emitting
		}
	}
}

// enter is the door of the commands HandleStream serves itself: the
// deadline shed, then admission. When ok is false the refusal has been
// emitted and the handler returns; otherwise it must call release when done.
func (s *Service) enter(tc *trace.Ctx, parent *trace.Span, cmd uint32, emit rpc.Emitter) (release func(), ok bool) {
	if s.shedExpired(tc, parent, cmd) {
		_ = emit(rpc.ReplyErr(rpc.StatusDeadlineExceeded), rpc.Plain(nil), true)
		return nil, false
	}
	if release, ok = s.admit(tc, parent, cmd); !ok {
		_ = emit(rpc.ReplyErr(rpc.StatusBusy), rpc.Plain(nil), true)
	}
	return release, ok
}

// admit claims an admission slot for cmd (when a limiter is attached and
// cmd is admission-controlled). ok false means the request must be shed
// with StatusBusy; otherwise release returns the slot and must be called
// when the request is done.
func (s *Service) admit(tc *trace.Ctx, parent *trace.Span, cmd uint32) (release func(), ok bool) {
	if s.adm == nil || !admissionControlled(cmd) {
		return func() {}, true
	}
	sp := tc.Begin(parent, trace.LayerRPC, trace.OpAdmit)
	ok = s.adm.TryEnter()
	if !ok && sp != nil {
		sp.Status = int32(rpc.StatusBusy)
	}
	tc.End(sp)
	if !ok {
		return nil, false
	}
	if s.adm.manualRelease {
		return func() {}, true
	}
	return s.adm.Release, true
}
