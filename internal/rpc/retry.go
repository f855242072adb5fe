package rpc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// Default backoff schedule for NewRetrier. The cap before jitter doubles
// from DefaultBackoffBase per failed attempt up to DefaultBackoffMax.
const (
	DefaultBackoffBase = time.Millisecond
	DefaultBackoffMax  = 50 * time.Millisecond
)

// Retrier wraps a Transport with bounded retry under a stable transaction
// ID: the server's duplicate suppression guarantees at-most-once execution
// even when replies were lost. Between attempts it sleeps with exponential
// backoff and full jitter — Uniform[0, min(max, base<<failures)) — so a
// struggling server sees retries spread out instead of a synchronized
// hammer. Zero value is not usable; use NewRetrier.
type Retrier struct {
	inner    Transport
	attempts int
	retries  *stats.Counter // optional; see AttachMetrics

	base      time.Duration // backoff cap for the first retry; 0 disables sleeping
	max       time.Duration // ceiling the doubling cap saturates at
	retryBusy bool          // treat StatusBusy replies as retryable; see SetRetryBusy

	// Injectable for deterministic schedule tests; never nil.
	now    func() time.Time
	sleep  func(time.Duration)
	jitter func(cap time.Duration) time.Duration
}

var _ Caller = (*Retrier)(nil)

// NewRetrier retries each transaction up to attempts times (minimum 1)
// with the default backoff schedule.
func NewRetrier(inner Transport, attempts int) *Retrier {
	if attempts < 1 {
		attempts = 1
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var rngMu sync.Mutex
	return &Retrier{
		inner:    inner,
		attempts: attempts,
		base:     DefaultBackoffBase,
		max:      DefaultBackoffMax,
		now:      time.Now,
		sleep:    time.Sleep,
		jitter: func(cap time.Duration) time.Duration {
			rngMu.Lock()
			defer rngMu.Unlock()
			return time.Duration(rng.Int63n(int64(cap)))
		},
	}
}

// SetBackoff replaces the backoff schedule: the pre-jitter cap starts at
// base and doubles per failed attempt up to max. base 0 disables sleeping
// (the pre-backoff behaviour). max below base is raised to base.
func (r *Retrier) SetBackoff(base, max time.Duration) {
	if max < base {
		max = base
	}
	r.base, r.max = base, max
}

// SetRetryBusy makes the retrier treat a StatusBusy reply as retryable
// backpressure: the server shed the request under admission control (or is
// mid-recovery), so the client backs off on the normal jittered schedule
// and tries again. Unlike a lost reply, a shed executed nothing, so each
// busy retry runs as a fresh transaction — reusing the pinned transaction
// ID would only replay the cached busy reply from duplicate suppression.
// If every attempt comes back busy the final busy reply is returned to the
// caller (not an error: the transport worked, the server said no).
func (r *Retrier) SetRetryBusy(on bool) { r.retryBusy = on }

// backoffFor returns the jittered sleep before retry number retry (1 is
// the first retry). Full jitter: uniform over [0, cap), where cap doubles
// from base per retry and saturates at max.
func (r *Retrier) backoffFor(retry int) time.Duration {
	if r.base <= 0 {
		return 0
	}
	cap := r.base
	for i := 1; i < retry && cap < r.max; i++ {
		cap <<= 1
	}
	if cap > r.max {
		cap = r.max
	}
	return r.jitter(cap)
}

// Trans implements Transport with retries.
func (r *Retrier) Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error) {
	return r.Call(port, CallOpts{}, req, payload, nil)
}

// Call implements Caller with retries: one transaction ID pinned across
// all attempts (the caller's own is ignored — the retrier's keeps
// at-most-once across its attempts), the trace ID propagated on each,
// jittered backoff between them. opts.Budget bounds the whole call: once
// it cannot cover the next backoff no further attempt is made and the
// caller gets an error wrapping trace.ErrDeadlineExceeded (with the last
// transport error wrapped alongside, so errors.Is still matches it) — a
// deadline miss must never masquerade as a transport fault. Every attempt
// carries the budget that REMAINS at that point, not the original, so the
// server's deadline shedding and the client agree on how much time is
// actually left. With a sink the call makes exactly one attempt: frames
// already handed to a sink cannot be taken back.
func (r *Retrier) Call(port capability.Port, opts CallOpts, req Header, payload []byte, sink FrameSink) (Header, []byte, error) {
	txid, err := NewTxID()
	if err != nil {
		return Header{}, nil, err
	}
	attempts, budget := r.attempts, opts.Budget
	if sink != nil {
		attempts = 1
	}
	var deadline time.Time
	if budget > 0 {
		deadline = r.now().Add(budget)
	}
	var lastErr error
	var lastHdr Header
	var lastPayload []byte
	var gotBusy bool
	budgetSpent := func(attempts int) (Header, []byte, error) {
		if gotBusy {
			return lastHdr, lastPayload, nil
		}
		if lastErr == nil {
			return Header{}, nil, fmt.Errorf("rpc: retry budget %v spent before any attempt: %w",
				budget, trace.ErrDeadlineExceeded)
		}
		// Both sentinels wrapped: the caller's errors.Is sees the
		// deadline first-class, without losing what the transport said.
		return Header{}, nil, fmt.Errorf("rpc: retry budget %v spent after %d attempts: %w (last attempt: %w)",
			budget, attempts, trace.ErrDeadlineExceeded, lastErr)
	}
	for i := 0; i < attempts; i++ {
		rem := time.Duration(0)
		if !deadline.IsZero() {
			rem = deadline.Sub(r.now())
			if rem <= 0 {
				return budgetSpent(i)
			}
		}
		if i > 0 && r.retries != nil {
			r.retries.Inc()
		}
		h, p, err := Call(r.inner, port, CallOpts{TxID: txid, TraceID: opts.TraceID, Budget: rem}, req, payload, sink)
		if err == nil {
			if !r.retryBusy || h.Status != StatusBusy {
				return h, p, nil
			}
			// Shed under load: back off and retry as a new transaction
			// (see SetRetryBusy for why the transaction ID must change).
			lastHdr, lastPayload, gotBusy, lastErr = h, p, true, nil
			if txid, err = NewTxID(); err != nil {
				return Header{}, nil, err
			}
		} else {
			if errors.Is(err, ErrNoServer) || errors.Is(err, ErrPayloadTooLarge) {
				return Header{}, nil, err // an unknown port or an oversized payload fails every attempt alike
			}
			lastErr, gotBusy = err, false
		}
		if i+1 >= attempts {
			break
		}
		d := r.backoffFor(i + 1)
		if !deadline.IsZero() {
			if rem := deadline.Sub(r.now()); d >= rem {
				// The backoff alone would outlive the budget: stop now
				// with the budget error, not the last transport error.
				return budgetSpent(i + 1)
			}
		}
		if d > 0 {
			r.sleep(d)
		}
	}
	if gotBusy {
		return lastHdr, lastPayload, nil
	}
	return Header{}, nil, lastErr
}
