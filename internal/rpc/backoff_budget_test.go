package rpc

import (
	"errors"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// budgetProbe is a Caller that records the budget each attempt carried
// and fails (or succeeds) per script. Failing attempts may also
// consume virtual time, modelling a transport that times out slowly.
type budgetProbe struct {
	clk     *fakeClock
	budgets []time.Duration
	fail    []bool        // fail[i]: attempt i returns ErrDropped (true past the end)
	cost    time.Duration // virtual time each attempt consumes
	busy    bool          // failed attempts reply StatusBusy instead of erroring
}

func (p *budgetProbe) Trans(capability.Port, Header, []byte) (Header, []byte, error) {
	panic("retrier must use Call when the transport supports it")
}

func (p *budgetProbe) Call(_ capability.Port, opts CallOpts, _ Header, _ []byte, _ FrameSink) (Header, []byte, error) {
	i := len(p.budgets)
	p.budgets = append(p.budgets, opts.Budget)
	p.clk.t = p.clk.t.Add(p.cost)
	failed := i >= len(p.fail) || p.fail[i]
	if !failed {
		return ReplyOK(), nil, nil
	}
	if p.busy {
		return ReplyErr(StatusBusy), nil, nil
	}
	return Header{}, nil, ErrDropped
}

// TestRetrierDeadlineVsRetry is the deadline-vs-retry interaction
// table: whenever the backoff schedule cannot fit in the caller's
// budget the retrier must stop early with the budget error — never the
// last transport error dressed up as the outcome — and every attempt
// must carry the budget remaining at that point, not the original.
func TestRetrierDeadlineVsRetry(t *testing.T) {
	cases := []struct {
		name         string
		budget       time.Duration // caller budget via CallOpts
		viaHelper    bool          // reach the retrier through the package's Call, as clients do
		attempts     int
		cost         time.Duration
		fail         []bool
		wantAttempts int
		wantDeadline bool // errors.Is(err, trace.ErrDeadlineExceeded)
		wantDropped  bool // errors.Is(err, ErrDropped)
		wantBudgets  []time.Duration
	}{
		{
			// 10ms backoffs fit a 100ms budget: plain exhaustion, and
			// the error is the transport's, not a deadline.
			name: "generous budget exhausts attempts", budget: 100 * time.Millisecond,
			attempts: 3, wantAttempts: 3, wantDropped: true,
			wantBudgets: []time.Duration{100 * time.Millisecond, 90 * time.Millisecond, 80 * time.Millisecond},
		},
		{
			// The third 10ms backoff would land past the 25ms deadline:
			// stop with the budget error, last transport error wrapped.
			name: "backoff would overrun budget", budget: 25 * time.Millisecond,
			attempts: 100, wantAttempts: 3, wantDeadline: true, wantDropped: true,
			wantBudgets: []time.Duration{25 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond},
		},
		{
			// A transport whose failing call itself eats the budget:
			// no second attempt, budget error.
			name: "slow transport consumes budget", budget: 25 * time.Millisecond,
			attempts: 100, cost: 30 * time.Millisecond,
			wantAttempts: 1, wantDeadline: true, wantDropped: true,
			wantBudgets: []time.Duration{25 * time.Millisecond},
		},
		{
			// Success inside the budget is just success.
			name: "success before deadline", budget: 25 * time.Millisecond,
			attempts: 100, fail: []bool{true, false},
			wantAttempts: 2,
			wantBudgets:  []time.Duration{25 * time.Millisecond, 15 * time.Millisecond},
		},
		{
			// A budget that reaches the retrier through the package's Call
			// helper, as a client's does, behaves identically.
			name: "budget via the Call helper", budget: 25 * time.Millisecond, viaHelper: true,
			attempts: 100, wantAttempts: 3, wantDeadline: true, wantDropped: true,
			wantBudgets: []time.Duration{25 * time.Millisecond, 15 * time.Millisecond, 5 * time.Millisecond},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := &fakeClock{t: time.Unix(0, 0)}
			probe := &budgetProbe{clk: clk, fail: tc.fail, cost: tc.cost}
			r := NewRetrier(probe, tc.attempts)
			r.SetBackoff(10*time.Millisecond, 10*time.Millisecond)
			withFakeClock(r, clk)

			opts := CallOpts{Budget: tc.budget}
			var err error
			if tc.viaHelper {
				_, _, err = Call(r, capability.Port{}, opts, Header{}, nil, nil)
			} else {
				_, _, err = r.Call(capability.Port{}, opts, Header{}, nil, nil)
			}

			if got := errors.Is(err, trace.ErrDeadlineExceeded); got != tc.wantDeadline {
				t.Errorf("errors.Is(err, trace.ErrDeadlineExceeded) = %v, want %v (err: %v)", got, tc.wantDeadline, err)
			}
			if got := errors.Is(err, ErrDropped); got != tc.wantDropped {
				t.Errorf("errors.Is(err, ErrDropped) = %v, want %v (err: %v)", got, tc.wantDropped, err)
			}
			if !tc.wantDeadline && !tc.wantDropped && err != nil {
				t.Errorf("err = %v, want success", err)
			}
			if len(probe.budgets) != tc.wantAttempts {
				t.Fatalf("attempts = %d, want %d (budgets: %v)", len(probe.budgets), tc.wantAttempts, probe.budgets)
			}
			for i, want := range tc.wantBudgets {
				if probe.budgets[i] != want {
					t.Errorf("attempt %d carried budget %v, want %v (refresh per attempt)", i, probe.budgets[i], want)
				}
			}
		})
	}
}

// TestRetrierBusyBeatsBudgetError: when every attempt came back as an
// admission shed and the budget then runs out, the caller gets the busy
// reply — the server answered; only its answer was "no".
func TestRetrierBusyBeatsBudgetError(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	probe := &budgetProbe{clk: clk, busy: true}
	r := NewRetrier(probe, 100)
	r.SetBackoff(10*time.Millisecond, 10*time.Millisecond)
	r.SetRetryBusy(true)
	withFakeClock(r, clk)

	h, _, err := r.Call(capability.Port{}, CallOpts{Budget: 25 * time.Millisecond}, Header{}, nil, nil)
	if err != nil {
		t.Fatalf("err = %v, want the busy reply, not an error", err)
	}
	if h.Status != StatusBusy {
		t.Fatalf("status = %v, want StatusBusy", h.Status)
	}
}
