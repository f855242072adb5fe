package bulletsvc

import (
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// This file serves the chunked READSTREAM command: a file as a sequence
// of ranged frames, all cut from one pinned lease.

// Chunk-size bounds for CmdReadStream. The request's Arg2 is a hint;
// zero picks the default and out-of-range hints are clamped.
const (
	streamChunkDefault = 256 << 10
	streamChunkMin     = 4 << 10
	streamChunkMax     = 4 << 20
)

// handleReadStream serves CmdReadStream: the file from Arg onward as a
// sequence of chunked frames, all cut from ONE pinned lease — the pin is
// held across the whole stream and released after the final frame's
// write. Each frame's header carries the chunk's file offset (Arg) and
// the file's total size (Arg2), so clients can preallocate and verify.
func (s *Service) handleReadStream(tc *trace.Ctx, parent *trace.Span, req rpc.Header, emit rpc.Emitter) {
	chunk := int64(req.Arg2)
	if chunk == 0 {
		chunk = streamChunkDefault
	} else if chunk < streamChunkMin {
		chunk = streamChunkMin
	} else if chunk > streamChunkMax {
		chunk = streamChunkMax
	}
	offset := int64(req.Arg)
	lease, err := s.engine.ReadView(tc, parent, req.Cap, offset, -1)
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
