package rpc

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// fakeLease is a Releaser tracking release count and whether the bytes
// were still live at write time.
type fakeLease struct {
	mu       sync.Mutex
	released int
}

func (f *fakeLease) Release() {
	f.mu.Lock()
	f.released++
	f.mu.Unlock()
}

func (f *fakeLease) releases() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.released
}

func TestDispatchStreamMultiFrame(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("stream")
	payloadA, payloadB := []byte("first-"), []byte("second")
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		_ = emit(Header{Status: StatusOK, Arg: 1}, Plain(payloadA), false)
		_ = emit(Header{Status: StatusOK, Arg: 2}, Plain(payloadB), true)
	})

	var frames []Header
	var got []byte
	var lasts []bool
	err := mux.DispatchStream(nil, port, 0, Header{Command: 9}, nil, func(h Header, data []byte, last bool) error {
		frames = append(frames, h)
		got = append(got, data...)
		lasts = append(lasts, last)
		return nil
	})
	if err != nil {
		t.Fatalf("DispatchStream: %v", err)
	}
	if len(frames) != 2 || !lasts[1] || lasts[0] {
		t.Fatalf("frames = %d, lasts = %v; want 2 frames, final last", len(frames), lasts)
	}
	if !bytes.Equal(got, []byte("first-second")) {
		t.Fatalf("assembled payload = %q", got)
	}
	if mux.BytesOut() != int64(len(got)) {
		t.Fatalf("BytesOut = %d, want %d", mux.BytesOut(), len(got))
	}
}

func TestDispatchStreamOwnedPayloadReleasedAfterWrite(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("owned")
	lease := &fakeLease{}
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		_ = emit(ReplyOK(), Owned([]byte("pinned bytes"), lease), true)
	})

	var pinsDuringWrite int64
	err := mux.DispatchStream(nil, port, 0, Header{}, nil, func(h Header, data []byte, last bool) error {
		// The pin must be held while the sink (the socket write) runs.
		pinsDuringWrite = mux.PinsHeld()
		if lease.releases() != 0 {
			t.Error("lease released before the sink ran")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("DispatchStream: %v", err)
	}
	if pinsDuringWrite != 1 {
		t.Fatalf("PinsHeld during write = %d, want 1", pinsDuringWrite)
	}
	if lease.releases() != 1 {
		t.Fatalf("lease released %d times, want exactly 1", lease.releases())
	}
	if mux.PinsHeld() != 0 {
		t.Fatalf("PinsHeld after dispatch = %d, want 0", mux.PinsHeld())
	}
	if mux.OwnedReplies() != 1 {
		t.Fatalf("OwnedReplies = %d, want 1", mux.OwnedReplies())
	}
}

func TestDispatchStreamOwnedReleasedEvenOnSinkError(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("sinkerr")
	lease := &fakeLease{}
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		if err := emit(ReplyOK(), Owned([]byte("x"), lease), true); err == nil {
			t.Error("emit should surface the sink error")
		}
	})
	sinkErr := fmt.Errorf("conn gone")
	err := mux.DispatchStream(nil, port, 0, Header{}, nil, func(Header, []byte, bool) error { return sinkErr })
	if err != sinkErr {
		t.Fatalf("DispatchStream err = %v, want the sink error", err)
	}
	if lease.releases() != 1 {
		t.Fatalf("lease released %d times after sink error, want 1", lease.releases())
	}
	if mux.PinsHeld() != 0 {
		t.Fatalf("PinsHeld = %d, want 0", mux.PinsHeld())
	}
}

func TestDispatchStreamCopyOnRetain(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("retain")
	backing := []byte("live while pinned")
	calls := 0
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		calls++
		lease := &fakeLease{}
		_ = emit(ReplyOK(), Owned(backing, lease), true)
	})

	sink := func(h Header, data []byte, last bool) error { return nil }
	if err := mux.DispatchStream(nil, port, 77, Header{}, nil, sink); err != nil {
		t.Fatalf("DispatchStream: %v", err)
	}
	if mux.DedupCopiedBytes() != int64(len(backing)) {
		t.Fatalf("DedupCopiedBytes = %d, want %d", mux.DedupCopiedBytes(), len(backing))
	}
	// Clobber the borrowed backing (simulates the cache slot being reused
	// after release): the replay must serve its own copy.
	for i := range backing {
		backing[i] = 0
	}
	var replay []byte
	if err := mux.DispatchStream(nil, port, 77, Header{}, nil, func(h Header, data []byte, last bool) error {
		replay = append([]byte(nil), data...)
		return nil
	}); err != nil {
		t.Fatalf("replay DispatchStream: %v", err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (replay must come from the dedup cache)", calls)
	}
	if string(replay) != "live while pinned" {
		t.Fatalf("replayed payload = %q: the dedup cache aliased the borrowed bytes", replay)
	}
}

func TestDispatchStreamMultiFrameNotRetained(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("noretain")
	calls := 0
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		calls++
		_ = emit(ReplyOK(), Plain([]byte("a")), false)
		_ = emit(ReplyOK(), Plain([]byte("b")), true)
	})
	sink := func(Header, []byte, bool) error { return nil }
	if err := mux.DispatchStream(nil, port, 42, Header{}, nil, sink); err != nil {
		t.Fatal(err)
	}
	if err := mux.DispatchStream(nil, port, 42, Header{}, nil, sink); err != nil {
		t.Fatal(err)
	}
	// Multi-frame replies are never cached: the retry re-executes.
	if calls != 2 {
		t.Fatalf("handler ran %d times, want 2 (multi-frame replies are not replayable)", calls)
	}
}

func TestDispatchStreamEmptyEmitIsInternalError(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("silent")
	mux.RegisterStream(port, func(*trace.Ctx, *trace.Span, Header, []byte, Emitter) {})
	var got Header
	var last bool
	if err := mux.DispatchStream(nil, port, 0, Header{}, nil, func(h Header, _ []byte, l bool) error {
		got, last = h, l
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusInternal || !last {
		t.Fatalf("silent handler produced %v (last=%v), want StatusInternal final frame", got, last)
	}
}

func TestDedupByteBudgetEviction(t *testing.T) {
	mux := NewMux(0)
	mux.SetDedupBytes(1 << 10) // 1 KiB budget
	port := capability.PortFromString("budget")
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		return ReplyOK(), bytes.Repeat([]byte{byte(req.Arg)}, 400)
	})

	// Three 400-byte replies against a 1 KiB budget: retaining the third
	// must evict the first.
	for txid := uint64(1); txid <= 3; txid++ {
		if _, _, err := NewLocal(mux).Call(port, CallOpts{TxID: txid}, Header{Arg: txid}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := mux.DedupBytes(); got > 1<<10 {
		t.Fatalf("DedupBytes = %d, exceeds the 1 KiB budget", got)
	}
	if mux.DedupEvictions() == 0 {
		t.Fatal("no evictions despite exceeding the byte budget")
	}
	if mux.DedupLen() != 2 {
		t.Fatalf("DedupLen = %d, want 2", mux.DedupLen())
	}

	// An oversized reply is not retained at all: the retry re-executes
	// (harmless for idempotent reads), and the budget is undisturbed.
	big := capability.PortFromString("big")
	execs := 0
	mux.Register(big, func(Header, []byte) (Header, []byte) {
		execs++
		return ReplyOK(), make([]byte, 2<<10)
	})
	before := mux.DedupBytes()
	for i := 0; i < 2; i++ {
		if _, _, err := NewLocal(mux).Call(big, CallOpts{TxID: 99}, Header{}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if execs != 2 {
		t.Fatalf("oversized reply executed %d times, want 2 (never retained)", execs)
	}
	if mux.DedupBytes() != before {
		t.Fatalf("DedupBytes moved from %d to %d on an unretained reply", before, mux.DedupBytes())
	}
}

// TestDispatchStreamPublishesTraceBeforeFinalFrame: by the time the sink
// sees a transaction's last frame — that is, before the client can hold
// its reply — the trace is in the recorder, root span closed. A handler
// that keeps working (and tracing) behind its last emit adds no second
// trace. Covers stream, plain-handler and replayed dispatches.
func TestDispatchStreamPublishesTraceBeforeFinalFrame(t *testing.T) {
	rec := trace.NewRecorder(trace.WithCapacity(16, 4))
	defer rec.Close()
	mux := NewMux(0)
	mux.AttachRecorder(rec)
	streamPort := capability.PortFromString("publish-stream")
	mux.RegisterStream(streamPort, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		_ = emit(ReplyOK(), Plain([]byte("a")), false)
		_ = emit(ReplyOK(), Plain([]byte("b")), true)
		tc.End(tc.Begin(parent, trace.LayerEngine, trace.OpRead)) // behind the reply
	})
	classicPort := capability.PortFromString("publish-classic")
	mux.Register(classicPort, func(req Header, payload []byte) (Header, []byte) {
		return ReplyOK(), []byte("c")
	})

	recorded := func(id uint64) (n int, root *trace.Span) {
		for _, tr := range rec.Recent() {
			if tr.ID == id {
				n++
				root = tr.Root()
			}
		}
		return n, root
	}
	tc := rec.AcquireCtx()
	defer rec.ReleaseCtx(tc)
	cases := []struct {
		name string
		port capability.Port
		txid uint64
	}{
		{"stream", streamPort, 0},
		{"classic", classicPort, 41},
		{"replay", classicPort, 41}, // same txid: served from the dedup cache
	}
	for i, tcase := range cases {
		id := uint64(100 + i)
		tc.Reset(id)
		err := mux.DispatchStream(tc, tcase.port, tcase.txid, Header{Command: 3}, nil, func(h Header, data []byte, last bool) error {
			n, root := recorded(id)
			if !last {
				if n != 0 {
					t.Errorf("%s: trace published before the final frame", tcase.name)
				}
				return nil
			}
			if n != 1 || root == nil || root.Dur < 0 {
				t.Errorf("%s: at the final frame the recorder holds %d traces (root %+v), want 1 with a closed root", tcase.name, n, root)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: DispatchStream: %v", tcase.name, err)
		}
		tc.Finish() // what the connection loop does afterwards
		if n, _ := recorded(id); n != 1 {
			t.Fatalf("%s: %d traces recorded for one transaction, want 1", tcase.name, n)
		}
	}
}

// TestDispatchStreamRetainsBeforeFrameWritten: a single-frame reply is in
// the duplicate-suppression cache before its frame is handed to the sink,
// as on the classic path. With the sink for txid T stuck mid-write (a
// client that stopped reading), a retry of T arriving on another
// connection replays the cached header; it must not run the handler — a
// CREATE — a second time.
func TestDispatchStreamRetainsBeforeFrameWritten(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("retain-first")
	var calls atomic.Int32
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		_ = emit(Header{Status: StatusOK, Arg: uint64(calls.Add(1))}, Plain(nil), true)
	})

	const txid = 4242
	inSink, unblock := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		first <- mux.DispatchStream(nil, port, txid, Header{}, nil, func(Header, []byte, bool) error {
			close(inSink)
			<-unblock
			return nil
		})
	}()
	<-inSink

	var replayed Header
	if err := mux.DispatchStream(nil, port, txid, Header{}, nil, func(h Header, _ []byte, _ bool) error {
		replayed = h
		return nil
	}); err != nil {
		t.Fatalf("retry DispatchStream: %v", err)
	}
	close(unblock)
	if err := <-first; err != nil {
		t.Fatalf("first DispatchStream: %v", err)
	}
	if calls.Load() != 1 || replayed.Arg != 1 {
		t.Fatalf("handler ran %d times and the retry saw reply %d; want 1 and the cached reply 1", calls.Load(), replayed.Arg)
	}
}

// TestDispatchStreamRunsAfterLast pins Payload.After on the stream path: it
// runs exactly once, on the dispatching goroutine, after the final frame's
// write, the request's metrics and the dedup entry — and just the same
// when the write failed.
func TestDispatchStreamRunsAfterLast(t *testing.T) {
	for _, sinkErr := range []error{nil, fmt.Errorf("peer went away")} {
		mux := NewMux(0)
		reg := stats.NewRegistry()
		mux.AttachMetrics(reg, nil)
		port := capability.PortFromString("after")
		var order []string
		mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
			_ = emit(ReplyOK(), Payload{After: func() {
				order = append(order, fmt.Sprintf("after dedup=%d requests=%d", mux.DedupLen(), reg.Counter("rpc.cmd1.requests").Load()))
			}}, true)
			order = append(order, "handler returns")
		})
		err := mux.DispatchStream(nil, port, 7, Header{Command: 1}, nil, func(Header, []byte, bool) error {
			order = append(order, "frame written") // unsynchronized: -race flags any other goroutine
			return sinkErr
		})
		if err != sinkErr {
			t.Fatalf("DispatchStream = %v, want the sink's %v", err, sinkErr)
		}
		want := "[frame written handler returns after dedup=1 requests=1]"
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("sink error %v: order %s, want %s", sinkErr, got, want)
		}
	}
}

// TestLocalStartsAfterOnItsOwn: where the reply is the call's return
// value (Local, and simnet through it) After cannot follow it, so it is
// started on a goroutine: the call returns while After is still held.
func TestLocalStartsAfterOnItsOwn(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("after-local")
	hold, ran := make(chan struct{}), make(chan struct{})
	mux.RegisterStream(port, func(tc *trace.Ctx, parent *trace.Span, req Header, payload []byte, emit Emitter) {
		_ = emit(ReplyOK(), Payload{Data: []byte("ok"), After: func() { <-hold; close(ran) }}, true)
	})
	h, body, err := NewLocal(mux).Trans(port, Header{}, nil)
	if err != nil || h.Status != StatusOK || string(body) != "ok" {
		t.Fatalf("Trans = %+v %q %v", h, body, err)
	}
	close(hold)
	<-ran
}
