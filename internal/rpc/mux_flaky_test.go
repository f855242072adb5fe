package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// TestRetrierExhaustionTagsMetrics pins the bookkeeping when every
// attempt fails: the retry counter records attempts beyond the first
// (not the first attempt itself), the caller sees the final underlying
// error, and the fault injector agrees on how many transactions it ate.
func TestRetrierExhaustionTagsMetrics(t *testing.T) {
	reg := stats.NewRegistry()
	mux := NewMux(0)
	port := capability.PortFromString("exhausted")
	mux.Register(port, echoHandler)
	flaky := NewFlaky(NewLocal(mux), 1.0, 0, 1) // every request lost
	r := NewRetrier(flaky, 4)
	r.AttachMetrics(reg)

	if _, _, err := r.Trans(port, Header{Command: 9}, nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped after exhausting retries (schedule: %s)", err, flaky.Schedule())
	}
	if n := reg.Snapshot().Counters["rpc.retries"]; n != 3 {
		t.Errorf("rpc.retries = %d, want 3 (4 attempts, first is not a retry; schedule: %s)", n, flaky.Schedule())
	}
	if flaky.Requests != 4 || flaky.Dropped != 4 {
		t.Errorf("flaky requests/dropped = %d/%d, want 4/4 (schedule: %s)", flaky.Requests, flaky.Dropped, flaky.Schedule())
	}
}

// TestFlakyReplyLossExecutesHandler pins the semantic that makes reply
// loss the interesting failure mode: the handler DID run (server-side
// effects exist) even though the caller got ErrDropped. Duplicate
// suppression exists precisely because of this asymmetry.
func TestFlakyReplyLossExecutesHandler(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("rep-loss")
	var calls atomic.Int64
	mux.Register(port, func(Header, []byte) (Header, []byte) {
		calls.Add(1)
		return ReplyOK(), nil
	})
	flaky := NewFlaky(NewLocal(mux), 0, 0, 1)
	flaky.ScriptDrops(nil, []bool{true}) // reply of the first transaction lost

	if _, _, err := flaky.Trans(port, Header{}, nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped (schedule: %s)", err, flaky.Schedule())
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 — reply loss must happen after dispatch (schedule: %s)", calls.Load(), flaky.Schedule())
	}
	if flaky.Requests != 1 || flaky.Dropped != 1 {
		t.Errorf("flaky requests/dropped = %d/%d, want 1/1 (schedule: %s)", flaky.Requests, flaky.Dropped, flaky.Schedule())
	}
}

// TestSharedTransportInterleavedTracedReplies drives one pooled
// TCPTransport with concurrent TRACED transactions (v2 frames carrying
// distinct trace IDs): replies must demux back to the right caller, and
// the server's recorder must file one trace per client-chosen ID.
func TestSharedTransportInterleavedTracedReplies(t *testing.T) {
	rec := trace.NewRecorder(trace.WithCapacity(256, 8))
	defer rec.Close()
	mux := NewMux(0)
	mux.AttachRecorder(rec)
	port := capability.PortFromString("traced-shared")
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		if tc == nil || parent == nil {
			_ = emit(ReplyErr(StatusInternal), Payload{}, true)
			return
		}
		out := append([]byte(nil), payload...)
		_ = emit(Header{Status: StatusOK, Command: req.Command, Arg: req.Arg}, Plain(out), true)
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup

	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 10*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup

	const workers, perWorker = 8, 16
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < perWorker; i++ {
				cmd := uint32(w*1000 + i)
				traceID := uint64(w*perWorker + i + 1) // nonzero, top bit clear
				payload := bytes.Repeat([]byte{byte(w + 1)}, w*31+1)
				rep, body, err := tr.Call(port, CallOpts{TraceID: traceID}, Header{Command: cmd, Arg: uint64(w)}, payload, nil)
				if err != nil {
					errc <- err
					return
				}
				if rep.Status != StatusOK || rep.Command != cmd || rep.Arg != uint64(w) {
					errc <- fmt.Errorf("worker %d got reply %+v for command %d", w, rep, cmd)
					return
				}
				if !bytes.Equal(body, payload) {
					errc <- fmt.Errorf("worker %d got another worker's payload", w)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}

	seen := map[uint64]int{}
	for _, tc := range rec.Recent() {
		seen[tc.ID]++
	}
	for id := uint64(1); id <= workers*perWorker; id++ {
		if seen[id] != 1 {
			t.Fatalf("trace ID %d recorded %d times, want exactly 1", id, seen[id])
		}
	}
}
