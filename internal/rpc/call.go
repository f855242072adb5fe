package rpc

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"time"

	"bulletfs/internal/capability"
)

// CallOpts is the full per-call option set a transport can carry beyond
// the fixed header: the at-most-once transaction ID, the wire trace ID,
// and a remaining-time deadline budget. Zero values mean "absent" —
// CallOpts{} is exactly a plain Trans.
type CallOpts struct {
	// TxID pins the transaction for at-most-once duplicate suppression
	// (0 = none).
	TxID uint64
	// TraceID propagates the client's trace (0 = server assigns one).
	TraceID uint64
	// Budget is how much time the caller is still willing to wait. It
	// rides the wire as the deadline TLV; the server sheds with
	// StatusDeadlineExceeded when the budget can't cover the op. 0 means
	// no deadline.
	Budget time.Duration
}

// Caller is a Transport that carries the full option set and can hand a
// reply of several frames to a sink, in order. A nil sink asks for the
// reply as one frame, whose payload is returned: TCP refuses a
// multi-frame reply then, Local assembles it. With a sink every frame goes
// to it and only the final frame's header is returned; a sink error ends
// the call with that error.
type Caller interface {
	Transport
	Call(port capability.Port, opts CallOpts, req Header, payload []byte, sink FrameSink) (Header, []byte, error)
}

// Call makes one transaction on t: through Caller.Call when t is one,
// otherwise through Trans. A Trans-only transport drops the options — the
// caller's own clock still bounds the call — and a sink receives its
// reply as one final frame.
func Call(t Transport, port capability.Port, opts CallOpts, req Header, payload []byte, sink FrameSink) (Header, []byte, error) {
	if c, ok := t.(Caller); ok {
		return c.Call(port, opts, req, payload, sink)
	}
	h, data, err := t.Trans(port, req, payload)
	if err != nil || sink == nil {
		return h, data, err
	}
	return h, nil, sink(h, data, true)
}

// NewTxID draws a random non-zero transaction ID for at-most-once retry.
func NewTxID() (uint64, error) {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0, fmt.Errorf("rpc: generating txid: %w", err)
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id, nil
		}
	}
}
