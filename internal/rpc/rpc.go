// Package rpc implements the Amoeba-style request/reply transactions the
// Bullet server is built on (paper §2.1: "operations on it are invoked
// through remote procedure calls"). A client performs a transaction against
// a 48-bit server port; the addressed capability, a command code and two
// scalar arguments travel in a fixed header, bulk data in the payload.
//
// There is one way to make a call and one way to serve it. A Transport has
// Trans, Amoeba's trans(); a Caller adds Call, which also carries the
// per-call options (transaction ID, trace ID, deadline budget) and can hand
// a multi-frame reply to a sink. The package function Call uses Call where
// the transport has it and falls back to Trans where it does not. Two
// transports implement Caller: Local, in-process, for tests, the simulated
// network and single-process deployments, and TCPTransport for real
// daemons; Flaky and Retrier wrap either. On the server side a Mux routes
// each transaction through its one dispatch, DispatchStream, to the
// handler registered for the port, and performs at-most-once duplicate
// suppression so that client retries after lost replies never re-execute
// a create or delete.
package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bulletfs/internal/capability"
)

// Status is the outcome of a transaction, carried in the reply header.
// Services map their domain errors onto these codes and clients map them
// back, so errors.Is works across the wire.
type Status int32

// Transaction status codes.
const (
	StatusOK Status = iota
	StatusNoSuchObject
	StatusBadCheck
	StatusBadRights
	StatusTooLarge
	StatusNoSpace
	StatusBadPFactor
	StatusBadOffset
	StatusBadCommand
	StatusNotFound
	StatusExists
	StatusBadRequest
	StatusInternal
	StatusBusy
	StatusDeadlineExceeded
)

var statusText = map[Status]string{
	StatusOK:           "ok",
	StatusNoSuchObject: "no such object",
	StatusBadCheck:     "bad check field",
	StatusBadRights:    "insufficient rights",
	StatusTooLarge:     "too large",
	StatusNoSpace:      "no space",
	StatusBadPFactor:   "bad p-factor",
	StatusBadOffset:    "bad offset",
	StatusBadCommand:   "bad command",
	StatusNotFound:     "not found",
	StatusExists:       "already exists",
	StatusBadRequest:   "bad request",
	StatusInternal:     "internal error",
	StatusBusy:         "busy",

	StatusDeadlineExceeded: "deadline exceeded",
}

func (s Status) String() string {
	if t, ok := statusText[s]; ok {
		return t
	}
	return fmt.Sprintf("status(%d)", int32(s))
}

// Error wraps a non-OK Status as a Go error.
type Error struct {
	Status  Status
	Message string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message == "" {
		return "rpc: " + e.Status.String()
	}
	return fmt.Sprintf("rpc: %s: %s", e.Status, e.Message)
}

// Is lets errors.Is match two rpc errors by status.
func (e *Error) Is(target error) bool {
	var other *Error
	if errors.As(target, &other) {
		return other.Status == e.Status
	}
	return false
}

// Errf builds an *Error.
func Errf(s Status, format string, args ...any) *Error {
	return &Error{Status: s, Message: fmt.Sprintf(format, args...)}
}

// Transport-level errors.
var (
	// ErrNoServer means no handler/listener serves the addressed port.
	ErrNoServer = errors.New("rpc: no server for port")
	// ErrBadFrame means a malformed message arrived on the wire.
	ErrBadFrame = errors.New("rpc: malformed frame")
	// ErrPayloadTooLarge means a frame exceeded the transport limit.
	ErrPayloadTooLarge = errors.New("rpc: payload exceeds limit")
	// ErrDropped is injected by the Flaky transport to simulate loss.
	ErrDropped = errors.New("rpc: message dropped")
)

// MaxPayload is the largest payload a transport will carry: comfortably
// above the largest Bullet file the experiments use (1 MB) plus headroom.
const MaxPayload = 64 << 20

// Header is the fixed part of every request and reply, modelled on the
// Amoeba transaction header: the capability being addressed, a command (or
// status, in replies) and two scalar arguments.
type Header struct {
	Cap     capability.Capability
	Command uint32
	Status  Status
	Arg     uint64
	Arg2    uint64
}

// HeaderLen is the encoded size of a Header.
const HeaderLen = capability.EncodedLen + 4 + 4 + 8 + 8

// Encode appends the wire form of h to dst.
func (h Header) Encode(dst []byte) []byte {
	dst = capability.Encode(dst, h.Cap)
	var tail [24]byte
	binary.BigEndian.PutUint32(tail[0:4], h.Command)
	binary.BigEndian.PutUint32(tail[4:8], uint32(h.Status))
	binary.BigEndian.PutUint64(tail[8:16], h.Arg)
	binary.BigEndian.PutUint64(tail[16:24], h.Arg2)
	return append(dst, tail[:]...)
}

// DecodeHeader parses a Header from the front of src, returning the rest.
func DecodeHeader(src []byte) (Header, []byte, error) {
	var h Header
	if len(src) < HeaderLen {
		return h, src, fmt.Errorf("%d bytes: %w", len(src), ErrBadFrame)
	}
	c, rest, err := capability.Decode(src)
	if err != nil {
		return h, src, fmt.Errorf("%v: %w", err, ErrBadFrame)
	}
	h.Cap = c
	h.Command = binary.BigEndian.Uint32(rest[0:4])
	h.Status = Status(binary.BigEndian.Uint32(rest[4:8]))
	h.Arg = binary.BigEndian.Uint64(rest[8:16])
	h.Arg2 = binary.BigEndian.Uint64(rest[16:24])
	return h, rest[24:], nil
}

// Handler processes one transaction addressed to a port. Implementations
// must not retain req or payload past the call — the TCP server reads
// request payloads into a buffer the connection reuses, so bytes
// reachable after the handler returns will be overwritten by a later
// request (a stream handler may keep a payload its port placed; see
// Placer). The returned
// reply payload must be owned by the reply (neither aliasing the request
// payload nor server state that can mutate; copy at the boundary): the
// duplicate-suppression cache retains it indefinitely.
type Handler func(req Header, payload []byte) (Header, []byte)

// Transport delivers one transaction to the server owning a port and
// returns its reply — Amoeba's trans() primitive.
type Transport interface {
	Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error)
}

// ReplyErr builds an error reply header from a status.
func ReplyErr(s Status) Header { return Header{Status: s} }

// ReplyOK builds a success reply header.
func ReplyOK() Header { return Header{Status: StatusOK} }
