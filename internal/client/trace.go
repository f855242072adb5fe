package client

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// WithTraceIDs makes the client stamp every transaction with a fresh
// 64-bit trace ID, propagated to the server in the RPC prologue
// extension so the server's flight recorder files the request's span
// tree under an ID the client knows. Requires an rpc.Caller (TCP and
// Local are); a Trans-only transport silently sends untraced requests,
// which the server still records under its own IDs.
func WithTraceIDs() Option {
	return func(c *Client) { c.traceIDs = true }
}

// newTraceID draws a random client-side trace ID. The top bit is the
// server's local-assignment namespace (trace.LocalIDBit), so client IDs
// keep it clear; zero means "untraced" on the wire and is never returned.
func newTraceID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			return 0 // fall back to an untraced request
		}
		id := binary.BigEndian.Uint64(b[:]) &^ trace.LocalIDBit
		if id != 0 {
			return id
		}
	}
}

// Traces fetches the server's flight-recorder contents: the recent ring,
// or the slow-request ring when slow is set. Like Stats it is
// capability-checked — cap must name a live file on the server and carry
// the read right.
func (c *Client) Traces(cap capability.Capability, slow bool) ([]trace.JSONTrace, error) {
	arg := bulletsvc.TraceRecent
	if slow {
		arg = bulletsvc.TraceSlow
	}
	_, body, err := c.call(cap.Port, rpc.Header{Command: bulletsvc.CmdTrace, Cap: cap, Arg: arg}, nil)
	if err != nil {
		return nil, err
	}
	ts, err := trace.DecodeTraces(body)
	if err != nil {
		return nil, fmt.Errorf("bullet client: %w", err)
	}
	return ts, nil
}
