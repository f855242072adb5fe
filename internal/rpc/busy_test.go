package rpc

import (
	"testing"
	"time"

	"bulletfs/internal/capability"
)

// busyTransport replies StatusBusy for the first busyLeft transactions,
// then StatusOK, recording every transaction ID it sees.
type busyTransport struct {
	busyLeft int
	calls    int
	txids    []uint64
}

func (b *busyTransport) Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error) {
	return b.Call(port, CallOpts{}, req, payload, nil)
}

func (b *busyTransport) Call(_ capability.Port, opts CallOpts, _ Header, _ []byte, _ FrameSink) (Header, []byte, error) {
	b.calls++
	b.txids = append(b.txids, opts.TxID)
	if b.busyLeft > 0 {
		b.busyLeft--
		return Header{Status: StatusBusy}, nil, nil
	}
	return Header{Status: StatusOK}, nil, nil
}

func TestRetrierBusyBacksOffWithFreshTxID(t *testing.T) {
	bt := &busyTransport{busyLeft: 2}
	r := NewRetrier(bt, 5)
	r.SetBackoff(10*time.Millisecond, 80*time.Millisecond)
	r.SetRetryBusy(true)
	clk := &fakeClock{t: time.Unix(0, 0)}
	withFakeClock(r, clk)

	h, _, err := r.Trans(capability.Port{}, Header{}, nil)
	if err != nil {
		t.Fatalf("Trans error = %v", err)
	}
	if h.Status != StatusOK {
		t.Fatalf("status = %v, want OK after busy retries", h.Status)
	}
	if bt.calls != 3 {
		t.Fatalf("attempts = %d, want 3 (busy, busy, ok)", bt.calls)
	}
	// Busy replies are backed off like failures, on the jittered schedule.
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("sleeps = %v, want %v", clk.sleeps, want)
	}
	// A shed executed nothing, so each retry must be a NEW transaction: the
	// mux's duplicate suppression caches replies per transaction ID, and a
	// reused ID would just replay the cached busy reply forever.
	seen := map[uint64]bool{}
	for i, id := range bt.txids {
		if id == 0 {
			t.Fatalf("attempt %d ran without a transaction ID", i)
		}
		if seen[id] {
			t.Fatalf("transaction ID %d reused across busy retries (%v)", id, bt.txids)
		}
		seen[id] = true
	}
}

func TestRetrierBusyExhaustionReturnsBusyReply(t *testing.T) {
	bt := &busyTransport{busyLeft: 100}
	r := NewRetrier(bt, 3)
	r.SetBackoff(time.Millisecond, time.Millisecond)
	r.SetRetryBusy(true)
	clk := &fakeClock{t: time.Unix(0, 0)}
	withFakeClock(r, clk)

	h, _, err := r.Trans(capability.Port{}, Header{}, nil)
	if err != nil {
		t.Fatalf("Trans error = %v; exhausted busy retries are a reply, not an error", err)
	}
	if h.Status != StatusBusy {
		t.Fatalf("status = %v, want StatusBusy", h.Status)
	}
	if bt.calls != 3 {
		t.Fatalf("attempts = %d, want all 3", bt.calls)
	}
}

func TestRetrierBusyDisabledPassesThrough(t *testing.T) {
	bt := &busyTransport{busyLeft: 1}
	r := NewRetrier(bt, 5)
	clk := &fakeClock{t: time.Unix(0, 0)}
	withFakeClock(r, clk)

	h, _, err := r.Trans(capability.Port{}, Header{}, nil)
	if err != nil {
		t.Fatalf("Trans error = %v", err)
	}
	if h.Status != StatusBusy || bt.calls != 1 {
		t.Fatalf("status = %v after %d calls; busy must pass through untouched by default", h.Status, bt.calls)
	}
}
