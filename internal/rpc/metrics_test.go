package rpc

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
)

func TestMuxMetricsRecordsPerOp(t *testing.T) {
	reg := stats.NewRegistry()
	mux := NewMux(0)
	mux.AttachMetrics(reg, func(cmd uint32) string {
		if cmd == 1 {
			return "ping"
		}
		return ""
	})
	port := capability.PortFromString("metrics-test")
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		if req.Command == 2 {
			return ReplyErr(StatusBadCommand), nil
		}
		return ReplyOK(), []byte("pong")
	})

	if _, _, err := NewLocal(mux).Trans(port, Header{Command: 1}, []byte("abc")); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if _, _, err := NewLocal(mux).Trans(port, Header{Command: 2}, nil); err != nil {
		t.Fatalf("Dispatch cmd2: %v", err)
	}

	snap := reg.Snapshot()
	if n := snap.Counters["rpc.ping.requests"]; n != 1 {
		t.Errorf("rpc.ping.requests = %d, want 1", n)
	}
	// Unnamed command falls back to cmd<N>.
	if n := snap.Counters["rpc.cmd2.requests"]; n != 1 {
		t.Errorf("rpc.cmd2.requests = %d, want 1", n)
	}
	if n := snap.Counters["rpc.cmd2.errors"]; n != 1 {
		t.Errorf("rpc.cmd2.errors = %d, want 1", n)
	}
	if _, ok := snap.Counters["rpc.ping.errors"]; ok {
		t.Error("rpc.ping.errors should not exist for an OK reply")
	}
	if h := snap.Histograms["rpc.ping.latency_ns"]; h.Count != 1 {
		t.Errorf("rpc.ping.latency_ns count = %d, want 1", h.Count)
	}
	if h := snap.Histograms["rpc.ping.req_bytes"]; h.Count != 1 || h.Max != 3 {
		t.Errorf("rpc.ping.req_bytes = %+v, want count 1 max 3", h)
	}
	if h := snap.Histograms["rpc.ping.rep_bytes"]; h.Max != 4 {
		t.Errorf("rpc.ping.rep_bytes max = %d, want 4", h.Max)
	}
}

func TestMuxMetricsCountsDupReplays(t *testing.T) {
	reg := stats.NewRegistry()
	mux := NewMux(0)
	mux.AttachMetrics(reg, nil)
	port := capability.PortFromString("dup-test")
	calls := 0
	mux.Register(port, func(Header, []byte) (Header, []byte) {
		calls++
		return ReplyOK(), nil
	})
	for i := 0; i < 3; i++ {
		if _, _, err := NewLocal(mux).Call(port, CallOpts{TxID: 42}, Header{Command: 1}, nil, nil); err != nil {
			t.Fatalf("Dispatch %d: %v", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1", calls)
	}
	if n := reg.Snapshot().Counters["rpc.dup_replays"]; n != 2 {
		t.Errorf("rpc.dup_replays = %d, want 2", n)
	}
}

func TestRetrierMetricsCountsRetries(t *testing.T) {
	reg := stats.NewRegistry()
	mux := NewMux(0)
	port := capability.PortFromString("retry-test")
	mux.Register(port, func(Header, []byte) (Header, []byte) { return ReplyOK(), nil })
	flaky := NewFlaky(NewLocal(mux), 0, 0, 1)
	flaky.ScriptDrops([]bool{true, false}, nil) // first attempt lost, second lands
	r := NewRetrier(flaky, 3)
	r.AttachMetrics(reg)

	if _, _, err := r.Trans(port, Header{Command: 1}, nil); err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if n := reg.Snapshot().Counters["rpc.retries"]; n != 1 {
		t.Errorf("rpc.retries = %d, want 1", n)
	}
}

func TestTransportMetricsClassifiesErrors(t *testing.T) {
	reg := stats.NewRegistry()
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{}), time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	tr.AttachMetrics(reg)

	// A plain failure counts as a transport error, not a timeout.
	tr.noteTransportErr(errors.New("connection refused"))
	// A deadline expiry counts as both.
	tr.noteTransportErr(fmt.Errorf("read: %w", os.ErrDeadlineExceeded))

	snap := reg.Snapshot()
	if n := snap.Counters["rpc.transport_errors"]; n != 2 {
		t.Errorf("rpc.transport_errors = %d, want 2", n)
	}
	if n := snap.Counters["rpc.timeouts"]; n != 1 {
		t.Errorf("rpc.timeouts = %d, want 1", n)
	}
}

func TestTransportMetricsRealDialFailure(t *testing.T) {
	reg := stats.NewRegistry()
	port := capability.PortFromString("nobody")
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{
		port: "127.0.0.1:1",
	}), 2*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	tr.AttachMetrics(reg)

	if _, _, err := tr.Trans(port, Header{Command: 1}, nil); err == nil {
		t.Fatal("dial to a dead address should fail")
	}
	if n := reg.Snapshot().Counters["rpc.transport_errors"]; n != 1 {
		t.Errorf("rpc.transport_errors = %d, want 1", n)
	}
}

// TestMuxMetricsRecordReusesHandles: after a command's first dispatch,
// booking a request builds no metric names and looks nothing up.
func TestMuxMetricsRecordReusesHandles(t *testing.T) {
	mm := &muxMetrics{reg: stats.NewRegistry(), ops: make(map[uint32]*opMetrics)}
	mm.record(7, 10, 20, StatusOK, time.Microsecond, 0)
	if allocs := testing.AllocsPerRun(200, func() {
		mm.record(7, 10, 20, StatusOK, time.Microsecond, 99)
	}); allocs != 0 {
		t.Fatalf("record allocates %.0f times per request, want 0", allocs)
	}
	if n := mm.reg.Snapshot().Counters["rpc.cmd7.requests"]; n != 202 {
		t.Fatalf("rpc.cmd7.requests = %d, want 202", n)
	}
}
