package rpc

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"bulletfs/internal/capability"
)

// TestDeadlineTLVRoundTrip pins the deadline extension: the budget rides
// the v2 prologue next to the trace ID and both come back intact.
func TestDeadlineTLVRoundTrip(t *testing.T) {
	port := capability.PortFromString("deadline-wire")
	var buf bytes.Buffer
	const budget = 750 * time.Millisecond
	if err := writeFrameExt(&buf, magicRequest, 9, 0xabcd, budget, port, Header{Command: 5}, []byte("p")); err != nil {
		t.Fatalf("writeFrameExt: %v", err)
	}
	if got := binary.BigEndian.Uint32(buf.Bytes()[0:4]); got != magicRequestV2 {
		t.Fatalf("frame magic %08x, want v2 %08x", got, magicRequestV2)
	}
	var fixed [prologueLen + extScratchLen]byte
	txid, traceID, gotBudget, gotPort, h, payload, _, err := readFrame(bytes.NewReader(buf.Bytes()), magicRequest, fixed[:])
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if txid != 9 || traceID != 0xabcd || gotBudget != budget || gotPort != port || h.Command != 5 || string(payload) != "p" {
		t.Fatalf("round trip lost fields: txid=%d traceID=%x budget=%v cmd=%d payload=%q",
			txid, traceID, gotBudget, h.Command, payload)
	}
}

// TestDeadlineWithoutTraceStaysV2 pins that a budget alone (no trace ID)
// still upgrades the frame and emits only the deadline TLV.
func TestDeadlineWithoutTraceStaysV2(t *testing.T) {
	port := capability.Port{3}
	var buf bytes.Buffer
	if err := writeFrameExt(&buf, magicRequest, 1, 0, time.Second, port, Header{Command: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint32(buf.Bytes()[0:4]); got != magicRequestV2 {
		t.Fatalf("frame magic %08x, want v2 %08x", got, magicRequestV2)
	}
	var fixed [prologueLen + extScratchLen]byte
	_, traceID, budget, _, _, _, _, err := readFrame(bytes.NewReader(buf.Bytes()), magicRequest, fixed[:])
	if err != nil {
		t.Fatal(err)
	}
	if traceID != 0 || budget != time.Second {
		t.Fatalf("traceID=%x budget=%v, want 0 and 1s", traceID, budget)
	}
}

// TestDeadlineZeroStaysV1 pins interop: no budget and no trace ID means
// a byte-identical v1 frame — old servers never see the extension.
func TestDeadlineZeroStaysV1(t *testing.T) {
	port := capability.Port{7}
	var v1, v2 bytes.Buffer
	if err := writeFrame(&v1, magicRequest, 4, port, Header{Command: 6}, nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrameExt(&v2, magicRequest, 4, 0, 0, port, Header{Command: 6}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("zero budget and trace ID changed the frame bytes")
	}
}

// TestFlakyDelayInjection pins the injected-latency mode: scripted
// per-transaction delays are delivered to the injected sleep (never the
// wall clock in tests) before the transaction runs.
func TestFlakyDelayInjection(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("flaky-delay")
	mux.Register(port, echoHandler)
	f := NewFlaky(NewLocal(mux), 0, 0, 1)
	var slept []time.Duration
	f.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	f.ScriptDelays([]time.Duration{5 * time.Millisecond, 0, 7 * time.Millisecond})

	for i := 0; i < 3; i++ {
		if _, _, err := f.Trans(port, Header{Command: 1}, nil); err != nil {
			t.Fatalf("transaction %d: %v (schedule: %s)", i, err, f.Schedule())
		}
	}
	want := []time.Duration{5 * time.Millisecond, 7 * time.Millisecond}
	if len(slept) != len(want) || slept[0] != want[0] || slept[1] != want[1] {
		t.Fatalf("sleeps = %v, want %v", slept, want)
	}
}

// TestFlakySchedule pins the fault-schedule log: each transaction's fate
// (delay, drop, ok) is recorded so test failures can print exactly what
// the injector did.
func TestFlakySchedule(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("flaky-sched")
	mux.Register(port, echoHandler)
	f := NewFlaky(NewLocal(mux), 0, 0, 1)
	f.SetSleep(func(time.Duration) {})
	f.ScriptDrops([]bool{true, false, false}, []bool{false, true, false})
	f.ScriptDelays([]time.Duration{0, 0, 3 * time.Millisecond})

	for i := 0; i < 3; i++ {
		_, _, _ = f.Trans(port, Header{Command: 1}, nil)
	}
	got := f.Schedule()
	for _, want := range []string{"#0 drop-req", "#1 drop-rep", "#2 delay(3ms)+ok"} {
		if !strings.Contains(got, want) {
			t.Fatalf("Schedule() = %q, want it to contain %q", got, want)
		}
	}
}
