// Package simnet is the simulated "normally loaded 10 Mbit/s Ethernet" the
// paper measured on: an in-process rpc.Transport that really moves every
// payload byte but charges wire, packet and server-CPU costs to a shared
// virtual clock (internal/hwmodel) instead of sleeping. Together with
// disk.SimDisk it lets cmd/benchmark regenerate the paper's tables
// deterministically in milliseconds of real time.
package simnet

import (
	"sync"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/hwmodel"
	"bulletfs/internal/rpc"
)

// Net is a timed rpc.Transport over an rpc.Mux, calling through an
// rpc.Local.
type Net struct {
	local *rpc.Local
	clock *hwmodel.Clock
	model hwmodel.NetModel
	cpu   hwmodel.CPUModel

	mu    sync.Mutex
	stats Stats
}

// Stats counts simulated traffic.
type Stats struct {
	Transactions int64
	BytesSent    int64 // request payload bytes
	BytesRecv    int64 // reply payload bytes
}

var _ rpc.Transport = (*Net)(nil)

// New builds a simulated network dispatching to mux, charging the given
// models to clock. The CPU model covers the server's request processing
// (the disk costs are charged by the server's SimDisks).
func New(mux *rpc.Mux, clock *hwmodel.Clock, model hwmodel.NetModel, cpu hwmodel.CPUModel) *Net {
	return &Net{local: rpc.NewLocal(mux), clock: clock, model: model, cpu: cpu}
}

// Parts is the virtual-time decomposition of one transaction: the request's
// flight to the server (RPC overhead plus wire and packet costs), the
// server's occupancy (CPU dispatch, memory copies, and every disk cost the
// engine charged while handling the request), and the reply's flight back.
// Latency is the sum; only Server occupies the server, so an open-loop
// generator queues requests on Server while charging NetOut/NetBack as pure
// pipeline delay.
type Parts struct {
	NetOut  time.Duration // request flight: per-RPC overhead + one-way wire time
	Server  time.Duration // server think time: CPU + cache + disk
	NetBack time.Duration // reply flight: one-way wire time
}

// Total returns the end-to-end virtual latency of the transaction.
func (p Parts) Total() time.Duration { return p.NetOut + p.Server + p.NetBack }

// Trans implements rpc.Transport: request flight time, server CPU time
// (dispatch plus one memory copy of the payload in and the reply out), and
// reply flight time are charged around the real dispatch.
func (n *Net) Trans(port capability.Port, req rpc.Header, payload []byte) (rpc.Header, []byte, error) {
	h, p, _, err := n.TransParts(port, req, payload)
	return h, p, err
}

// TransParts is Trans returning the virtual-time decomposition alongside
// the reply, for callers (the open-loop load generator) that model network
// flight and server occupancy separately.
func (n *Net) TransParts(port capability.Port, req rpc.Header, payload []byte) (rpc.Header, []byte, Parts, error) {
	var parts Parts
	reqBytes := rpc.HeaderLen + len(payload)
	parts.NetOut = n.model.PerRPCOverhead + n.model.OneWayTime(reqBytes)
	n.clock.Advance(parts.NetOut)

	// The server's occupancy is everything charged between dispatch entry
	// and exit: the CPU model's costs plus whatever the engine's simulated
	// disks add. Measuring it as a clock delta keeps the decomposition
	// honest no matter what the handler does.
	serverStart := n.clock.Now()
	n.clock.Advance(n.cpu.RequestTime(int64(len(payload))))
	repHdr, repPayload, err := n.local.Trans(port, req, payload)
	if err != nil {
		return repHdr, repPayload, parts, err
	}
	n.clock.Advance(n.cpu.RequestTime(int64(len(repPayload))) - n.cpu.PerRequest) // copy-out cost only
	parts.Server = n.clock.Now() - serverStart

	parts.NetBack = n.model.OneWayTime(rpc.HeaderLen + len(repPayload))
	n.clock.Advance(parts.NetBack)

	n.mu.Lock()
	n.stats.Transactions++
	n.stats.BytesSent += int64(len(payload))
	n.stats.BytesRecv += int64(len(repPayload))
	n.mu.Unlock()
	return repHdr, repPayload, parts, nil
}

// Clock returns the shared virtual clock.
func (n *Net) Clock() *hwmodel.Clock { return n.clock }

// Stats returns a snapshot of traffic counters.
func (n *Net) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}
