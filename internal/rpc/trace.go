package rpc

import (
	"time"

	"bulletfs/internal/trace"
)

// arena is the span arena one serving context re-arms per request: a TCP
// connection keeps one for its lifetime, a Local call borrows one for the
// call. It is the only place a request's trace ID is assigned and its
// deadline budget armed.
type arena struct {
	m     *Mux
	rec   *trace.Recorder
	tc    *trace.Ctx // borrowed from rec; nil when no recorder is attached
	spare *trace.Ctx // a bare Ctx for budgets when tc is nil, allocated on demand
}

// newArena borrows a span arena from the attached recorder (none when no
// recorder is attached). Call release when done with it.
func (m *Mux) newArena() arena {
	rec := m.Recorder()
	return arena{m: m, rec: rec, tc: rec.AcquireCtx()}
}

// arm readies the arena for one request and returns the Ctx to dispatch
// it with: the recorder's arena reset to traceID — a server-assigned local
// ID when the caller propagated none — or, with no recorder, a bare Ctx
// when a budget needs one to ride on, else nil. A budget (0 = none) is
// armed against the Mux's clock.
func (a *arena) arm(traceID uint64, budget time.Duration) *trace.Ctx {
	cur := a.tc
	if cur == nil {
		if budget <= 0 {
			return nil
		}
		if a.spare == nil {
			a.spare = new(trace.Ctx)
		}
		cur = a.spare
	} else if traceID == 0 {
		traceID = a.rec.NextLocalID()
	}
	cur.Reset(traceID)
	if budget > 0 {
		cur.ArmDeadline(budget, a.m.nowNanos)
	}
	return cur
}

// release returns the recorder's arena.
func (a *arena) release() { a.rec.ReleaseCtx(a.tc) }
