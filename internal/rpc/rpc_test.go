package rpc

import (
	"bytes"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"bulletfs/internal/capability"
)

// writeFrame sends one frame through a one-off frameWriter (fake peers and
// codec tests; connections keep their own).
func writeFrame(w io.Writer, magic uint32, txid uint64, port capability.Port, h Header, payload []byte) error {
	return writeFrameExt(w, magic, txid, 0, 0, port, h, payload)
}

// writeFrameExt is writeFrame with the optional trace ID and budget.
func writeFrameExt(w io.Writer, magic uint32, txid, traceID uint64, budget time.Duration, port capability.Port, h Header, payload []byte) error {
	var fw frameWriter
	return fw.write(w, magic, txid, traceID, budget, port, h, payload)
}

func echoHandler(req Header, payload []byte) (Header, []byte) {
	rep := req
	rep.Status = StatusOK
	out := make([]byte, len(payload))
	copy(out, payload)
	return rep, out
}

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	r, err := capability.NewRandom()
	if err != nil {
		t.Fatalf("NewRandom: %v", err)
	}
	in := Header{
		Cap:     capability.Owner(capability.PortFromString("t"), 99, r),
		Command: 7,
		Status:  StatusBadRights,
		Arg:     1 << 40,
		Arg2:    42,
	}
	buf := in.Encode(nil)
	if len(buf) != HeaderLen {
		t.Fatalf("encoded length = %d, want %d", len(buf), HeaderLen)
	}
	out, rest, err := DecodeHeader(buf)
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDecodeHeaderShort(t *testing.T) {
	if _, _, err := DecodeHeader(make([]byte, HeaderLen-1)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(port [6]byte, object uint32, rights, cmd uint8, status int16, arg, arg2 uint64, check [6]byte) bool {
		in := Header{
			Cap: capability.Capability{
				Port:   capability.Port(port),
				Object: object & capability.MaxObject,
				Rights: capability.Rights(rights),
				Check:  capability.Check(check),
			},
			Command: uint32(cmd),
			Status:  Status(status),
			Arg:     arg,
			Arg2:    arg2,
		}
		out, _, err := DecodeHeader(in.Encode(nil))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusOK.String() != "ok" {
		t.Fatalf("StatusOK = %q", StatusOK.String())
	}
	if Status(999).String() != "status(999)" {
		t.Fatalf("unknown status = %q", Status(999).String())
	}
}

func TestErrorIsMatchesByStatus(t *testing.T) {
	a := Errf(StatusNoSpace, "disk %d", 1)
	b := Errf(StatusNoSpace, "other")
	c := Errf(StatusTooLarge, "x")
	if !errors.Is(a, b) {
		t.Fatal("same-status errors do not match")
	}
	if errors.Is(a, c) {
		t.Fatal("different-status errors match")
	}
	if a.Error() == "" || (&Error{Status: StatusOK}).Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestLocalTransport(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("echo")
	mux.Register(port, echoHandler)
	tr := NewLocal(mux)

	payload := []byte("ping")
	rep, got, err := tr.Trans(port, Header{Command: 3}, payload)
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if rep.Status != StatusOK || rep.Command != 3 {
		t.Fatalf("reply header = %+v", rep)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload = %q", got)
	}

	if _, _, err := tr.Trans(capability.PortFromString("nobody"), Header{}, nil); !errors.Is(err, ErrNoServer) {
		t.Fatalf("unknown port err = %v, want ErrNoServer", err)
	}
}

func TestMuxRegisterUnregister(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("svc")
	mux.Register(port, echoHandler)
	if len(mux.Ports()) != 1 {
		t.Fatalf("ports = %v", mux.Ports())
	}
	mux.Unregister(port)
	if _, _, err := NewLocal(mux).Trans(port, Header{}, nil); !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
}

func TestMuxDuplicateSuppression(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("count")
	var calls atomic.Int64
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		calls.Add(1)
		return ReplyOK(), []byte{byte(calls.Load())}
	})

	h1, p1, err := NewLocal(mux).Call(port, CallOpts{TxID: 77}, Header{}, nil, nil)
	if err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	h2, p2, err := NewLocal(mux).Call(port, CallOpts{TxID: 77}, Header{}, nil, nil) // duplicate
	if err != nil {
		t.Fatalf("Dispatch dup: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}
	if h1 != h2 || !bytes.Equal(p1, p2) {
		t.Fatal("duplicate reply differs from original")
	}

	// txid 0 is never deduplicated.
	NewLocal(mux).Trans(port, Header{}, nil) //nolint:errcheck
	NewLocal(mux).Trans(port, Header{}, nil) //nolint:errcheck
	if calls.Load() != 3 {
		t.Fatalf("handler ran %d times, want 3", calls.Load())
	}
}

func TestMuxDedupEviction(t *testing.T) {
	mux := NewMux(4)
	port := capability.PortFromString("e")
	var calls atomic.Int64
	mux.Register(port, func(Header, []byte) (Header, []byte) {
		calls.Add(1)
		return ReplyOK(), nil
	})
	for id := uint64(1); id <= 6; id++ {
		if _, _, err := NewLocal(mux).Call(port, CallOpts{TxID: id}, Header{}, nil, nil); err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
	}
	if mux.DedupLen() != 4 {
		t.Fatalf("dedup cache = %d entries, want 4", mux.DedupLen())
	}
	// txid 1 was evicted: replaying it re-executes (at-most-once is
	// bounded by cache size, like any real dedup window).
	if _, _, err := NewLocal(mux).Call(port, CallOpts{TxID: 1}, Header{}, nil, nil); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if calls.Load() != 7 {
		t.Fatalf("handler ran %d times, want 7", calls.Load())
	}
}

func TestTCPEndToEnd(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("tcp-echo")
	mux.Register(port, echoHandler)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 5*time.Second)
	defer tr.Close()

	payload := bytes.Repeat([]byte{0xAB}, 100_000)
	rep, got, err := tr.Trans(port, Header{Command: 9, Arg: 1}, payload)
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if rep.Status != StatusOK || rep.Command != 9 || rep.Arg != 1 {
		t.Fatalf("reply header = %+v", rep)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted over TCP")
	}

	// Sequential transactions on the pooled connection.
	for i := 0; i < 10; i++ {
		if _, _, err := tr.Trans(port, Header{Command: uint32(i)}, []byte{byte(i)}); err != nil {
			t.Fatalf("Trans %d: %v", i, err)
		}
	}
}

func TestTCPUnknownPort(t *testing.T) {
	mux := NewMux(0)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	port := capability.PortFromString("ghost")
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 2*time.Second)
	defer tr.Close()
	rep, _, err := tr.Trans(port, Header{}, nil)
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if rep.Status != StatusNoSuchObject {
		t.Fatalf("status = %v, want StatusNoSuchObject", rep.Status)
	}
}

func TestTCPResolverFailure(t *testing.T) {
	tr := NewTCPTransport(StaticResolver(nil), time.Second)
	defer tr.Close()
	if _, _, err := tr.Trans(capability.PortFromString("x"), Header{}, nil); !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v, want ErrNoServer", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("conc")
	mux.Register(port, echoHandler)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	const clients = 8
	done := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(id int) {
			tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 5*time.Second)
			defer tr.Close()
			for i := 0; i < 50; i++ {
				payload := bytes.Repeat([]byte{byte(id)}, id*100+1)
				_, got, err := tr.Trans(port, Header{Command: uint32(id)}, payload)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, payload) {
					done <- errors.New("payload corrupted")
					return
				}
			}
			done <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestPayloadLimit(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, magicRequest, 1, capability.Port{}, Header{}, make([]byte, MaxPayload+1))
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("err = %v, want ErrPayloadTooLarge", err)
	}
}

func TestRetrierRecoversFromRequestLoss(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("retry")
	var calls atomic.Int64
	mux.Register(port, func(Header, []byte) (Header, []byte) {
		calls.Add(1)
		return ReplyOK(), []byte("done")
	})
	flaky := NewFlaky(NewLocal(mux), 0, 0, 1)
	flaky.ScriptDrops([]bool{true, false}, nil) // first request lost
	tr := NewRetrier(flaky, 3)

	rep, payload, err := tr.Trans(port, Header{}, nil)
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if rep.Status != StatusOK || string(payload) != "done" {
		t.Fatalf("reply = %+v %q", rep, payload)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}
}

func TestRetrierAtMostOnceOnReplyLoss(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("amo")
	var calls atomic.Int64
	mux.Register(port, func(Header, []byte) (Header, []byte) {
		n := calls.Add(1)
		return ReplyOK(), []byte{byte(n)}
	})
	flaky := NewFlaky(NewLocal(mux), 0, 0, 1)
	// First attempt: server executes but the reply is lost. Retry must
	// return the CACHED first reply, not run the handler again.
	flaky.ScriptDrops([]bool{false, false}, []bool{true, false})
	tr := NewRetrier(flaky, 3)

	_, payload, err := tr.Trans(port, Header{}, nil)
	if err != nil {
		t.Fatalf("Trans: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler executed %d times, want exactly 1 (at-most-once)", calls.Load())
	}
	if len(payload) != 1 || payload[0] != 1 {
		t.Fatalf("payload = %v, want the first reply", payload)
	}
}

func TestRetrierGivesUp(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("dead")
	mux.Register(port, echoHandler)
	flaky := NewFlaky(NewLocal(mux), 1.0, 0, 1) // all requests lost
	tr := NewRetrier(flaky, 3)
	if _, _, err := tr.Trans(port, Header{}, nil); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	if flaky.Requests != 3 {
		t.Fatalf("attempts = %d, want 3", flaky.Requests)
	}
}

func TestRetrierNoServerShortCircuits(t *testing.T) {
	mux := NewMux(0)
	flaky := NewFlaky(NewLocal(mux), 0, 0, 1)
	tr := NewRetrier(flaky, 5)
	if _, _, err := tr.Trans(capability.PortFromString("x"), Header{}, nil); !errors.Is(err, ErrNoServer) {
		t.Fatalf("err = %v", err)
	}
	if flaky.Requests != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on unknown port)", flaky.Requests)
	}
}

func TestNewTxIDNonZeroAndDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id, err := NewTxID()
		if err != nil {
			t.Fatalf("NewTxID: %v", err)
		}
		if id == 0 {
			t.Fatal("zero txid")
		}
		if seen[id] {
			t.Fatal("duplicate txid in 100 draws")
		}
		seen[id] = true
	}
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("closing")
	block := make(chan struct{})
	mux.Register(port, func(Header, []byte) (Header, []byte) {
		<-block
		return ReplyOK(), nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 500*time.Millisecond)
	defer tr.Close()

	errc := make(chan error, 1)
	go func() {
		_, _, err := tr.Trans(port, Header{}, nil)
		errc <- err
	}()
	// The client must time out rather than hang forever.
	if err := <-errc; err == nil {
		t.Fatal("blocked transaction returned nil error")
	}
	close(block)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
