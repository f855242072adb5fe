package rpc

import (
	"errors"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"bulletfs/internal/stats"
)

// This file instruments the RPC layer with the stats package: the Mux
// records per-operation request counts, payload sizes and service-time
// histograms; the Retrier counts retries; the TCP transport counts
// timeouts and other transport failures. All attachment is optional —
// an uninstrumented Mux or transport pays a single nil check per call.

// muxMetrics is the per-Mux instrumentation state.
type muxMetrics struct {
	reg    *stats.Registry
	nameOf func(uint32) string

	mu  sync.RWMutex
	ops map[uint32]*opMetrics // guarded by mu; one entry per command code seen
}

// opMetrics is one command's handles into the registry, resolved the
// first time the command is dispatched: building four metric names and
// looking each up was a measurable share of a small cached read.
type opMetrics struct {
	name     string // the rpc.<name>.* segment
	requests *stats.Counter
	latency  *stats.Histogram
	reqBytes *stats.Histogram
	repBytes *stats.Histogram
}

// opName renders a command code for metric names: the attached naming
// function's answer if it gives one, else "cmd<N>".
func (mm *muxMetrics) opName(cmd uint32) string {
	if mm.nameOf != nil {
		if n := mm.nameOf(cmd); n != "" {
			return n
		}
	}
	return "cmd" + strconv.FormatUint(uint64(cmd), 10)
}

// op returns cmd's handles, registering its series on first use.
func (mm *muxMetrics) op(cmd uint32) *opMetrics {
	mm.mu.RLock()
	om := mm.ops[cmd]
	mm.mu.RUnlock()
	if om != nil {
		return om
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if om = mm.ops[cmd]; om != nil {
		return om
	}
	name := mm.opName(cmd)
	om = &opMetrics{
		name:     name,
		requests: mm.reg.Counter("rpc." + name + ".requests"),
		// Exemplar threshold 0: every traced observation is eligible, so
		// the slowest recent trace per bucket is always on record.
		latency:  mm.reg.HistogramExemplars("rpc."+name+".latency_ns", stats.DefaultLatencyBounds, 0),
		reqBytes: mm.reg.Histogram("rpc."+name+".req_bytes", stats.DefaultSizeBounds),
		repBytes: mm.reg.Histogram("rpc."+name+".rep_bytes", stats.DefaultSizeBounds),
	}
	mm.ops[cmd] = om
	return om
}

// record books one dispatched transaction under rpc.<op>.*. traceID (0
// for untraced requests) feeds the latency histogram's per-bucket
// exemplars, so a tail-latency bucket names a trace the flight recorder
// can expand.
func (mm *muxMetrics) record(cmd uint32, reqBytes, repBytes int, st Status, elapsed time.Duration, traceID uint64) {
	om := mm.op(cmd)
	om.requests.Inc()
	if st != StatusOK {
		// Looked up by name on the (rare) failure itself: an op that has
		// never failed exports no errors series.
		mm.reg.Counter("rpc." + om.name + ".errors").Inc()
	}
	om.latency.ObserveTraced(int64(elapsed), traceID)
	om.reqBytes.Observe(int64(reqBytes))
	om.repBytes.Observe(int64(repBytes))
}

// AttachMetrics instruments every subsequent Dispatch with per-operation
// counters and histograms in reg. nameOf maps command codes to metric
// name segments (nil or "" answers fall back to "cmd<N>"); services own
// their command spaces, so the owner of the mux supplies the mapping
// (e.g. bulletsvc.CommandName).
func (m *Mux) AttachMetrics(reg *stats.Registry, nameOf func(uint32) string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.metrics = &muxMetrics{reg: reg, nameOf: nameOf, ops: make(map[uint32]*opMetrics)}
	// Dispatch-path gauges: outbound reply bytes, the zero-copy reply
	// path (borrowed payloads and the pins held over socket writes), and
	// the byte-budgeted duplicate-suppression cache.
	reg.GaugeFunc("rpc.bytes_out", m.BytesOut)
	reg.GaugeFunc("rpc.reply_pins_held", m.PinsHeld)
	reg.GaugeFunc("rpc.owned_replies", m.OwnedReplies)
	reg.GaugeFunc("rpc.dedup_bytes", m.DedupBytes)
	reg.GaugeFunc("rpc.dedup_copied_bytes", m.DedupCopiedBytes)
	reg.GaugeFunc("rpc.dedup_evictions", m.DedupEvictions)
}

// AttachMetrics adds a retry counter ("rpc.retries") to the registry;
// each attempt beyond a transaction's first increments it.
func (r *Retrier) AttachMetrics(reg *stats.Registry) {
	r.retries = reg.Counter("rpc.retries")
}

// AttachMetrics adds transport-failure counters to the registry:
// "rpc.timeouts" for deadline expiries and "rpc.transport_errors" for
// every failed transaction (timeouts included).
func (t *TCPTransport) AttachMetrics(reg *stats.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.timeouts = reg.Counter("rpc.timeouts")
	t.transErrs = reg.Counter("rpc.transport_errors")
}

// noteTransportErr classifies one failed TCP transaction.
func (t *TCPTransport) noteTransportErr(err error) {
	t.mu.Lock()
	timeouts, transErrs := t.timeouts, t.transErrs
	t.mu.Unlock()
	if transErrs != nil {
		transErrs.Inc()
	}
	if timeouts == nil {
		return
	}
	var nerr net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &nerr) && nerr.Timeout()) {
		timeouts.Inc()
	}
}
