package rpc

import (
	"bulletfs/internal/capability"
)

// Local is the in-process Transport over a Mux: a transaction is a direct
// call into the Mux's one dispatch. It is the substrate for tests and for
// the simulated network (internal/simnet), which wraps it with a timing
// model.
type Local struct {
	mux *Mux
}

var _ Caller = (*Local)(nil)

// NewLocal returns a Local transport dispatching to mux.
func NewLocal(mux *Mux) *Local { return &Local{mux: mux} }

// Trans implements Transport.
func (l *Local) Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error) {
	return l.Call(port, CallOpts{}, req, payload, nil)
}

// Call implements Caller in-process. The payload is placed and the span
// arena armed exactly as the TCP server does for a request off the wire,
// the payload copied into its placement where the port's Placer makes one;
// frames reach the sink as the handler emits them, or, with no sink, are
// copied into one reply. That reply is this call's return value, so the
// final frame's After cannot follow it on this goroutine: it is started on
// its own.
func (l *Local) Call(port capability.Port, opts CallOpts, req Header, payload []byte, sink FrameSink) (h Header, data []byte, err error) {
	deliver := func(fh Header, frame []byte, last bool) error {
		h = fh
		if sink != nil {
			return sink(fh, frame, last)
		}
		data = append(data, frame...)
		return nil
	}
	pl := l.mux.place(port, opts.TxID, req, len(payload))
	if pl != nil {
		copy(pl.Bytes(), payload)
		payload = pl.Bytes()
	}
	a := l.mux.newArena()
	tc := a.arm(opts.TraceID, opts.Budget)
	after, err := l.mux.dispatch(l.mux.newStreamState(deliver), tc, port, opts.TxID, req, payload)
	abandon(pl)
	tc.Finish()
	a.release()
	if after != nil {
		//lint:ignore goroutinestop the reply is this call's return value, so its write-behind cannot follow it on this goroutine; it is accounted by its file's commit ticket, whose waiters run it if they get there first, and by the replica set's pending-write counter, which Sync and Close drain
		go after()
	}
	return h, data, err
}
