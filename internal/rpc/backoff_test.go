package rpc

import (
	"errors"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// failingTransport always drops, counting attempts.
type failingTransport struct{ calls int }

func (f *failingTransport) Trans(capability.Port, Header, []byte) (Header, []byte, error) {
	f.calls++
	return Header{}, nil, ErrDropped
}

// fakeClock drives the retrier's now/sleep hooks: sleeping advances
// virtual time instantly and records the requested duration.
type fakeClock struct {
	t      time.Time
	sleeps []time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }

func (c *fakeClock) sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.t = c.t.Add(d)
}

// withFakeClock rewires a retrier onto clk with jitter replaced by the
// identity (sleep the full pre-jitter cap), so the schedule is exact.
func withFakeClock(r *Retrier, clk *fakeClock) {
	r.now = clk.now
	r.sleep = clk.sleep
	r.jitter = func(cap time.Duration) time.Duration { return cap }
}

func TestRetrierBackoffSchedule(t *testing.T) {
	ft := &failingTransport{}
	r := NewRetrier(ft, 6)
	r.SetBackoff(10*time.Millisecond, 80*time.Millisecond)
	clk := &fakeClock{t: time.Unix(0, 0)}
	withFakeClock(r, clk)

	_, _, err := r.Trans(capability.Port{}, Header{}, nil)
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("Trans error = %v, want ErrDropped", err)
	}
	if ft.calls != 6 {
		t.Fatalf("attempts = %d, want 6", ft.calls)
	}
	// The cap doubles from base and saturates at max; the last attempt is
	// not followed by a sleep.
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond,
	}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", clk.sleeps, want)
	}
	for i := range want {
		if clk.sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all: %v)", i, clk.sleeps[i], want[i], clk.sleeps)
		}
	}
}

func TestRetrierBackoffJitterBounds(t *testing.T) {
	// With the real jitter hook every sleep must land in [0, cap).
	ft := &failingTransport{}
	r := NewRetrier(ft, 8)
	r.SetBackoff(16*time.Millisecond, 64*time.Millisecond)
	clk := &fakeClock{t: time.Unix(0, 0)}
	realJitter := r.jitter
	r.now = clk.now
	r.sleep = clk.sleep
	r.jitter = realJitter

	if _, _, err := r.Trans(capability.Port{}, Header{}, nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("Trans error = %v, want ErrDropped", err)
	}
	caps := []time.Duration{16, 32, 64, 64, 64, 64, 64}
	for i, d := range clk.sleeps {
		if d < 0 || d >= caps[i]*time.Millisecond {
			t.Fatalf("sleep %d = %v, want in [0, %v)", i, d, caps[i]*time.Millisecond)
		}
	}
}

func TestRetrierBudgetStopsRetrying(t *testing.T) {
	ft := &failingTransport{}
	r := NewRetrier(ft, 100)
	r.SetBackoff(10*time.Millisecond, 10*time.Millisecond)
	clk := &fakeClock{t: time.Unix(0, 0)}
	withFakeClock(r, clk)

	_, _, err := r.Call(capability.Port{}, CallOpts{Budget: 25 * time.Millisecond}, Header{}, nil, nil)
	if !errors.Is(err, trace.ErrDeadlineExceeded) {
		t.Fatalf("Trans error = %v, want the budget error (trace.ErrDeadlineExceeded)", err)
	}
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("Trans error = %v, want the last transport error (ErrDropped) wrapped alongside", err)
	}
	// Virtual schedule: attempt, sleep 10ms, attempt, sleep 10ms, attempt —
	// the next 10ms backoff would land past the 25ms deadline, so the
	// retrier stops with the budget error instead of sleeping into it.
	if ft.calls != 3 {
		t.Fatalf("attempts = %d, want 3 (sleeps: %v)", ft.calls, clk.sleeps)
	}
	want := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", clk.sleeps, want)
	}
	for i := range want {
		if clk.sleeps[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v", i, clk.sleeps[i], want[i])
		}
	}
	if total := clk.t.Sub(time.Unix(0, 0)); total > 25*time.Millisecond {
		t.Fatalf("slept %v total, budget was 25ms", total)
	}
}

func TestRetrierZeroBaseDisablesSleep(t *testing.T) {
	ft := &failingTransport{}
	r := NewRetrier(ft, 5)
	r.SetBackoff(0, 0)
	clk := &fakeClock{t: time.Unix(0, 0)}
	withFakeClock(r, clk)

	if _, _, err := r.Trans(capability.Port{}, Header{}, nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("Trans error = %v, want ErrDropped", err)
	}
	if ft.calls != 5 || len(clk.sleeps) != 0 {
		t.Fatalf("attempts = %d sleeps = %v, want 5 attempts and no sleeps", ft.calls, clk.sleeps)
	}
}
