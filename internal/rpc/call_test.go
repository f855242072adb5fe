package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// The call table: every kind of transport a client can hold, under every
// option a call can carry, through the one client path (Call) into the
// one dispatch (DispatchStream).

// transOnly hides everything but Trans, the shape of a wrapper that
// predates Caller (a benchmark's tracing shim, say): Call falls back to
// its Trans, so options are dropped and a sink sees one assembled frame.
type transOnly struct{ inner Transport }

func (t transOnly) Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error) {
	return t.inner.Trans(port, req, payload)
}

const (
	cmdTableOne     = 1 // one reply frame
	cmdTableStream  = 2 // three reply frames
	cmdTableBarrier = 3 // an empty reply, not counted as an execution
)

// tableFrame is frame i's payload for a request payload: borrowed by the
// handler from a lease, so every frame exercises the pin accounting.
func tableFrame(i int, payload []byte) []byte {
	return append([]byte{byte('a' + i)}, payload...)
}

type tableTransport struct {
	name string
	dial func(t *testing.T, mux *Mux, port capability.Port) Transport
	// caller: options reach the server and frames reach the sink one by
	// one. false for the Trans-only wrapper.
	caller bool
	// ownTxID: the transport pins its own transaction ID, so the caller's
	// does not deduplicate across calls.
	ownTxID bool
}

var tableTransports = []tableTransport{
	{name: "tcp", caller: true, dial: func(t *testing.T, mux *Mux, port capability.Port) Transport {
		srv := NewTCPServer(mux)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
		tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 5*time.Second)
		t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
		return tr
	}},
	{name: "local", caller: true, dial: func(_ *testing.T, mux *Mux, _ capability.Port) Transport {
		return NewLocal(mux)
	}},
	{name: "flaky(local)", caller: true, dial: func(_ *testing.T, mux *Mux, _ capability.Port) Transport {
		return NewFlaky(NewLocal(mux), 0, 0, 1)
	}},
	{name: "retrier(flaky(local))", caller: true, ownTxID: true, dial: func(_ *testing.T, mux *Mux, _ capability.Port) Transport {
		return NewRetrier(NewFlaky(NewLocal(mux), 0, 0, 1), 3)
	}},
	{name: "trans-only(local)", dial: func(_ *testing.T, mux *Mux, _ capability.Port) Transport {
		return transOnly{NewLocal(mux)}
	}},
}

// tableWorld is one mux with a recorder and the table's handler: every
// execution is counted and its number returned in Arg, each frame's index
// in Arg2; a spent deadline budget is shed with StatusDeadlineExceeded.
type tableWorld struct {
	mux   *Mux
	rec   *trace.Recorder
	port  capability.Port
	execs atomic.Int64
}

func newTableWorld(t *testing.T) *tableWorld {
	w := &tableWorld{mux: NewMux(0), port: capability.PortFromString("call-table")}
	w.rec = trace.NewRecorder(trace.WithCapacity(64, 8))
	t.Cleanup(w.rec.Close)
	w.mux.AttachRecorder(w.rec)
	w.mux.RegisterStream(w.port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		if req.Command == cmdTableBarrier {
			_ = emit(ReplyOK(), Plain(nil), true)
			return
		}
		n := w.execs.Add(1)
		tc.End(tc.Begin(parent, trace.LayerEngine, trace.OpRead))
		if tc.DeadlineExceeded() {
			_ = emit(ReplyErr(StatusDeadlineExceeded), Plain(nil), true)
			return
		}
		frames := 1
		if req.Command == cmdTableStream {
			frames = 3
		}
		for i := 0; i < frames; i++ {
			h := Header{Status: StatusOK, Command: req.Command, Arg: uint64(n), Arg2: uint64(i)}
			if emit(h, Owned(tableFrame(i, payload), &fakeLease{}), i == frames-1) != nil {
				return
			}
		}
	})
	return w
}

// wantOne is the single-frame reply to execution n of a cmdTableOne call.
func wantOne(n int64) Header {
	return Header{Status: StatusOK, Command: cmdTableOne, Arg: uint64(n)}
}

func checkReply(t *testing.T, what string, h Header, body []byte, err error, want Header, wantBody []byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if h != want || !bytes.Equal(body, wantBody) {
		t.Fatalf("%s: reply %+v %q, want %+v %q", what, h, body, want, wantBody)
	}
}

// tableCases are the option sets; each runs on a fresh world and transport.
var tableCases = []struct {
	name string
	run  func(t *testing.T, w *tableWorld, tt tableTransport, tr Transport)
}{
	{"zero opts", func(t *testing.T, w *tableWorld, _ tableTransport, tr Transport) {
		h, body, err := Call(tr, w.port, CallOpts{}, Header{Command: cmdTableOne}, []byte("ping"), nil)
		checkReply(t, "call", h, body, err, wantOne(1), tableFrame(0, []byte("ping")))
	}},
	{"txid", func(t *testing.T, w *tableWorld, tt tableTransport, tr Transport) {
		// A replay under the same transaction ID must not re-execute where
		// the ID reaches the server as the caller's.
		opts := CallOpts{TxID: 4242}
		h, body, err := Call(tr, w.port, opts, Header{Command: cmdTableOne}, []byte("once"), nil)
		checkReply(t, "first call", h, body, err, wantOne(1), tableFrame(0, []byte("once")))
		execs := int64(1)
		if !tt.caller || tt.ownTxID {
			execs = 2
		}
		h, body, err = Call(tr, w.port, opts, Header{Command: cmdTableOne}, []byte("once"), nil)
		checkReply(t, "replay", h, body, err, wantOne(execs), tableFrame(0, []byte("once")))
		if got := w.execs.Load(); got != execs {
			t.Fatalf("handler ran %d times, want %d", got, execs)
		}
	}},
	{"trace id", func(t *testing.T, w *tableWorld, tt tableTransport, tr Transport) {
		const id = 0x5eed
		h, body, err := Call(tr, w.port, CallOpts{TraceID: id}, Header{Command: cmdTableOne}, nil, nil)
		checkReply(t, "call", h, body, err, wantOne(1), tableFrame(0, nil))
		traces := w.rec.Recent()
		if len(traces) != 1 {
			t.Fatalf("recorder has %d traces, want 1", len(traces))
		}
		got := traces[0]
		if !tt.caller {
			if got.ID == id || got.ID&trace.LocalIDBit == 0 {
				t.Fatalf("trace ID %#x through a Trans-only transport, want a server-assigned local ID", got.ID)
			}
			return
		}
		if got.ID != id {
			t.Fatalf("recorded trace ID %#x, want %#x", got.ID, id)
		}
		root := got.Root()
		if root == nil || root.Layer != trace.LayerRPC || root.Op != trace.OpRequest || root.Cmd != cmdTableOne {
			t.Fatalf("bad root span: %+v", root)
		}
		if got.N != 2 || got.Spans[1].Layer != trace.LayerEngine || got.Spans[1].Parent != root.ID {
			t.Fatalf("handler span missing or mis-parented: %+v", got.Spans[:got.N])
		}
	}},
	{"budget", func(t *testing.T, w *tableWorld, tt tableTransport, tr Transport) {
		// Every look at the server's clock jumps an hour: a minute's
		// budget is spent by the handler's check.
		var ticks atomic.Int64
		w.mux.SetNow(func() int64 { return ticks.Add(int64(time.Hour)) })
		h, body, err := Call(tr, w.port, CallOpts{Budget: time.Minute}, Header{Command: cmdTableOne}, nil, nil)
		want, wantBody := ReplyErr(StatusDeadlineExceeded), []byte(nil)
		if !tt.caller {
			want, wantBody = wantOne(1), tableFrame(0, nil)
		}
		checkReply(t, "call", h, body, err, want, wantBody)
	}},
	{"sink on a multi-frame reply", func(t *testing.T, w *tableWorld, tt tableTransport, tr Transport) {
		type frame struct {
			h    Header
			data []byte
			last bool
		}
		var frames []frame
		h, body, err := Call(tr, w.port, CallOpts{}, Header{Command: cmdTableStream}, []byte("s"), func(h Header, data []byte, last bool) error {
			frames = append(frames, frame{h, append([]byte(nil), data...), last})
			return nil
		})
		final := Header{Status: StatusOK, Command: cmdTableStream, Arg: 1, Arg2: 2}
		checkReply(t, "call", h, body, err, final, nil)
		if !tt.caller {
			var all []byte
			for i := 0; i < 3; i++ {
				all = append(all, tableFrame(i, []byte("s"))...)
			}
			if len(frames) != 1 || !frames[0].last || frames[0].h != final || !bytes.Equal(frames[0].data, all) {
				t.Fatalf("frames %+v, want exactly one assembled final frame %q", frames, all)
			}
			return
		}
		if len(frames) != 3 {
			t.Fatalf("%d frames, want 3", len(frames))
		}
		for i, f := range frames {
			want := Header{Status: StatusOK, Command: cmdTableStream, Arg: 1, Arg2: uint64(i)}
			if f.h != want || !bytes.Equal(f.data, tableFrame(i, []byte("s"))) || f.last != (i == 2) {
				t.Fatalf("frame %d = %+v, want %+v %q last=%v", i, f, want, tableFrame(i, []byte("s")), i == 2)
			}
		}
	}},
}

// TestCallTable runs every option set over every transport. After each
// case a barrier call on the same transport — on TCP the server finishes
// a connection's dispatch before it reads the next request — proves the
// transport is still usable and that every pin has been released.
func TestCallTable(t *testing.T) {
	for _, tt := range tableTransports {
		for _, tc := range tableCases {
			t.Run(tt.name+"/"+tc.name, func(t *testing.T) {
				w := newTableWorld(t)
				tr := tt.dial(t, w.mux, w.port)
				tc.run(t, w, tt, tr)
				if h, _, err := tr.Trans(w.port, Header{Command: cmdTableBarrier}, nil); err != nil || h.Status != StatusOK {
					t.Fatalf("barrier call after the case: %+v, %v", h, err)
				}
				if n := w.mux.PinsHeld(); n != 0 {
					t.Fatalf("PinsHeld = %d after the case, want 0", n)
				}
			})
		}
	}
}

// TestZeroOptsCallSendsV1Frame: a Call with zero options puts a v1 (AMTX)
// frame on the wire, byte for byte what Trans sends; any option upgrades
// it to v2.
func TestZeroOptsCallSendsV1Frame(t *testing.T) {
	frames := make(chan []byte, 3)
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader, _ int) {
		for {
			pro := make([]byte, prologueLen)
			if _, err := io.ReadFull(br, pro); err != nil {
				return
			}
			rest := 0
			if binary.BigEndian.Uint32(pro[0:4]) == magicRequestV2 {
				var two [2]byte
				if _, err := io.ReadFull(br, two[:]); err != nil {
					return
				}
				pro = append(pro, two[:]...)
				rest = int(binary.BigEndian.Uint16(two[:]))
			}
			rest += int(binary.BigEndian.Uint32(pro[prologueLen-4 : prologueLen]))
			tail := make([]byte, rest)
			if _, err := io.ReadFull(br, tail); err != nil {
				return
			}
			frames <- append(pro, tail...)
			if writeFrame(conn, magicReply, 0, capability.Port{}, ReplyOK(), nil) != nil {
				return
			}
		}
	})
	tr, port, _ := pipelineTransport(t, addr, 5*time.Second)
	req, payload := Header{Command: 6}, []byte("v1?")
	for i, opts := range []CallOpts{{}, {TraceID: 1}} {
		if _, _, err := tr.Call(port, opts, req, payload, nil); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
	if _, _, err := tr.Trans(port, req, payload); err != nil {
		t.Fatalf("Trans: %v", err)
	}
	zero, traced, trans := <-frames, <-frames, <-frames
	if magic := binary.BigEndian.Uint32(zero[0:4]); magic != magicRequest {
		t.Fatalf("zero-opts Call sent magic %08x, want v1 %08x", magic, magicRequest)
	}
	if !bytes.Equal(zero, trans) {
		t.Fatal("zero-opts Call and Trans put different bytes on the wire")
	}
	if magic := binary.BigEndian.Uint32(traced[0:4]); magic != magicRequestV2 {
		t.Fatalf("traced Call sent magic %08x, want v2 %08x", magic, magicRequestV2)
	}
}

// TestRetrierStreamsOnce: frames handed to a sink cannot be taken back, so
// a streamed call through a Retrier makes exactly one attempt. The
// Flaky under it loses the reply after its frames went to the sink; the
// caller gets the loss, and the sink saw each frame once.
func TestRetrierStreamsOnce(t *testing.T) {
	w := newTableWorld(t)
	flaky := NewFlaky(NewLocal(w.mux), 0, 0, 1)
	flaky.ScriptDrops(nil, []bool{true})
	r := NewRetrier(flaky, 5)
	r.SetBackoff(0, 0)
	var seen []string
	_, _, err := r.Call(w.port, CallOpts{}, Header{Command: cmdTableStream}, []byte("x"), func(h Header, data []byte, last bool) error {
		seen = append(seen, fmt.Sprintf("%d:%s:%v", h.Arg2, data, last))
		return nil
	})
	if err != ErrDropped {
		t.Fatalf("err = %v, want ErrDropped (schedule: %s)", err, flaky.Schedule())
	}
	if flaky.Requests != 1 || w.execs.Load() != 1 {
		t.Fatalf("%d attempts, %d executions; want 1 and 1 (schedule: %s)", flaky.Requests, w.execs.Load(), flaky.Schedule())
	}
	if got, want := fmt.Sprint(seen), "[0:ax:false 1:bx:false 2:cx:true]"; got != want {
		t.Fatalf("sink saw %s, want %s", got, want)
	}
}
