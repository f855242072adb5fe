package bulletsvc

import (
	"sync/atomic"

	"bulletfs/internal/stats"
)

// Admission bounds the number of file operations the server processes
// concurrently. The paper's closed-loop evaluation never saturates the
// server — one client cannot — but an open-loop world (thousands of
// independent clients) can offer more work than the disks and CPU absorb,
// and an unbounded server then queues without limit: latency grows with
// the backlog and every client times out together. Admission control
// converts that collapse into explicit load shedding: past the in-flight
// limit the service answers StatusBusy immediately instead of queueing,
// and clients back off on the Retrier's jittered schedule (SetRetryBusy).
//
// Only file operations (CREATE, SIZE, READ, READ_RANGE, READSTREAM,
// DELETE, MODIFY, APPEND) are admission-controlled. The observability
// and maintenance surface (STAT, STATS, TRACE, SALVAGE, SYNC,
// COMPACT-DISK) bypasses the limiter so operators can inspect and drain
// a saturated server.
//
// All methods are safe for concurrent use.
type Admission struct {
	limit int64 // immutable after construction; 0 = unlimited
	// manualRelease is set (before serving) by harnesses that retire
	// requests on their own timeline: the service then enters the limiter
	// on dispatch but never releases, and the harness calls Release when
	// the request's simulated service completes. Real servers leave it
	// false: a token spans the handler call.
	manualRelease bool

	inflight atomic.Int64
	peak     atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// NewAdmission returns a limiter admitting at most limit in-flight file
// operations. limit <= 0 means unlimited: the limiter still counts
// in-flight and peak occupancy but never sheds.
func NewAdmission(limit int) *Admission {
	if limit < 0 {
		limit = 0
	}
	return &Admission{limit: int64(limit)}
}

// SetManualRelease switches the limiter to harness-driven token release
// (see the type comment). Call before the service starts handling
// requests; flipping it mid-flight would strand or double-release tokens.
func (a *Admission) SetManualRelease(on bool) { a.manualRelease = on }

// TryEnter claims one in-flight slot. It returns false — and counts a
// shed — when the limiter is at its limit.
func (a *Admission) TryEnter() bool {
	v := a.inflight.Add(1)
	if a.limit > 0 && v > a.limit {
		a.inflight.Add(-1)
		a.shed.Add(1)
		return false
	}
	a.admitted.Add(1)
	for {
		cur := a.peak.Load()
		if v <= cur || a.peak.CompareAndSwap(cur, v) {
			break
		}
	}
	return true
}

// Release returns one in-flight slot claimed by a successful TryEnter.
func (a *Admission) Release() { a.inflight.Add(-1) }

// Limit returns the configured in-flight limit (0 = unlimited).
func (a *Admission) Limit() int64 { return a.limit }

// InFlight returns the current number of admitted, unreleased operations.
func (a *Admission) InFlight() int64 { return a.inflight.Load() }

// Peak returns the highest in-flight occupancy observed.
func (a *Admission) Peak() int64 { return a.peak.Load() }

// Admitted returns the total number of operations admitted.
func (a *Admission) Admitted() int64 { return a.admitted.Load() }

// Shed returns the total number of operations refused with StatusBusy.
func (a *Admission) Shed() int64 { return a.shed.Load() }

// AttachMetrics publishes the limiter's state in reg under rpc.admission_*
// gauges, polled at snapshot time like the cache counters: the limiter's
// own atomics stay the source of truth and the hot path never touches the
// registry.
func (a *Admission) AttachMetrics(reg *stats.Registry) {
	reg.GaugeFunc("rpc.admission_limit", a.Limit)
	reg.GaugeFunc("rpc.admission_inflight", a.InFlight)
	reg.GaugeFunc("rpc.admission_peak", a.Peak)
	reg.GaugeFunc("rpc.admission_admitted", a.Admitted)
	reg.GaugeFunc("rpc.admission_shed", a.Shed)
}

// admissionControlled reports whether cmd is a file operation subject to
// admission control.
func admissionControlled(cmd uint32) bool {
	switch cmd {
	case CmdCreate, CmdSize, CmdRead, CmdDelete, CmdModify, CmdAppend, CmdReadRange,
		CmdReadStream:
		return true
	default:
		return false
	}
}
