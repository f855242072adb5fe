package rpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// These tests cover the pipelined client side of the TCP transport: the
// send lock and the receive turn of tcpConn. The fake servers are raw
// listeners speaking the frame format by hand, so each test decides
// exactly when (and whether) a reply goes out.

// fakeServer accepts on loopback and runs serve on every connection, with
// the connection's index in accept order. Everything is closed at cleanup.
func fakeServer(t *testing.T, serve func(conn net.Conn, br *bufio.Reader, n int)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				defer conn.Close()
				serve(conn, bufio.NewReader(conn), n)
			}(n)
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return lis.Addr().String()
}

type fakeReq struct {
	port    capability.Port
	h       Header
	payload []byte
}

func readFakeReq(br *bufio.Reader) (fakeReq, error) {
	var fixed [prologueLen + extScratchLen]byte
	_, _, _, port, h, payload, _, err := readFrame(br, magicRequest, fixed[:])
	return fakeReq{port, h, payload}, err
}

// echoFake answers r the way echoHandler would.
func echoFake(conn net.Conn, r fakeReq) error {
	h := r.h
	h.Status = StatusOK
	return writeFrame(conn, magicReply, 0, r.port, h, r.payload)
}

// serveEcho is a well-behaved fake: one echo reply per request, in order.
func serveEcho(conn net.Conn, br *bufio.Reader) {
	for {
		r, err := readFakeReq(br)
		if err != nil || echoFake(conn, r) != nil {
			return
		}
	}
}

func pipelineTransport(t *testing.T, addr string, timeout time.Duration) (*TCPTransport, capability.Port, *stats.Registry) {
	t.Helper()
	port := capability.PortFromString("pipeline")
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), timeout)
	reg := stats.NewRegistry()
	tr.AttachMetrics(reg)
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
	return tr, port, reg
}

// checkedTrans runs one Trans whose command and payload derive from nonce
// and verifies the reply is the echo of exactly that request.
func checkedTrans(tr *TCPTransport, port capability.Port, nonce uint64) error {
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], nonce)
	rep, body, err := tr.Trans(port, Header{Command: 1, Arg: nonce}, payload[:])
	if err != nil {
		return err
	}
	if rep.Status != StatusOK || rep.Arg != nonce || !bytes.Equal(body, payload[:]) {
		return fmt.Errorf("nonce %d got the reply for %d (%x)", nonce, rep.Arg, body)
	}
	return nil
}

// TestPipelinedRequestsAreBothOnTheWire: the server reads TWO request
// frames before answering either. With one request in flight per
// connection the second is never sent and the first caller times out.
func TestPipelinedRequestsAreBothOnTheWire(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader, _ int) {
		a, err := readFakeReq(br)
		if err != nil {
			return
		}
		b, err := readFakeReq(br)
		if err != nil {
			return
		}
		if echoFake(conn, a) == nil && echoFake(conn, b) == nil {
			serveEcho(conn, br)
		}
	})
	tr, port, _ := pipelineTransport(t, addr, 3*time.Second)
	errc := make(chan error, 2)
	for nonce := uint64(1); nonce <= 2; nonce++ {
		go func(nonce uint64) { errc <- checkedTrans(tr, port, nonce) }(nonce)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("request not pipelined behind the one in flight: %v", err)
		}
	}
}

const cmdPipelineStream = 77

// TestPipelineEveryCallerGetsItsOwnReply hammers one transport from 8
// goroutines with nonce-stamped calls, every eighth a three-frame
// streamed Call: whatever the interleaving on the wire, each caller sees
// exactly its own frames, in order.
func TestPipelineEveryCallerGetsItsOwnReply(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("pipeline")
	mux.RegisterStream(port, func(_ *trace.Ctx, _ *trace.Span, req Header, payload []byte, emit Emitter) {
		out := append([]byte(nil), payload...)
		if req.Command != cmdPipelineStream {
			_ = emit(Header{Status: StatusOK, Arg: req.Arg}, Plain(out), true)
			return
		}
		for i := uint64(0); i < 3; i++ {
			if emit(Header{Status: StatusOK, Arg: req.Arg, Arg2: i}, Plain(out), i == 2) != nil {
				return
			}
		}
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 30*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup

	const workers, calls = 8, 500
	errc := make(chan error, workers)
	for w := uint64(0); w < workers; w++ {
		go func(w uint64) {
			for i := uint64(0); i < calls; i++ {
				nonce := w<<32 | i
				if i%8 != w {
					if err := checkedTrans(tr, port, nonce); err != nil {
						errc <- err
						return
					}
					continue
				}
				var payload [8]byte
				binary.BigEndian.PutUint64(payload[:], nonce)
				next := uint64(0)
				_, _, err := tr.Call(port, CallOpts{}, Header{Command: cmdPipelineStream, Arg: nonce}, payload[:], func(h Header, data []byte, last bool) error {
					if h.Arg != nonce || h.Arg2 != next || !bytes.Equal(data, payload[:]) || last != (next == 2) {
						return fmt.Errorf("stream %d frame %d: got frame %d of %d (last %v)", nonce, next, h.Arg2, h.Arg, last)
					}
					next++
					return nil
				})
				if err == nil && next != 3 {
					err = fmt.Errorf("stream %d ended after %d frames", nonce, next)
				}
				if err != nil {
					errc <- err
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
}

// TestReceiveTurnServerCloseFailsEveryQueuedCaller: the first connection is
// closed once three pipelined requests have been read. All three callers
// fail with a transport error, none hangs, each is counted, the
// connection is dropped, and the next call redials.
func TestReceiveTurnServerCloseFailsEveryQueuedCaller(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader, n int) {
		if n > 0 {
			serveEcho(conn, br)
			return
		}
		for i := 0; i < 3; i++ {
			if _, err := readFakeReq(br); err != nil {
				return
			}
		}
	})
	tr, port, reg := pipelineTransport(t, addr, 10*time.Second)
	// Dial first: three racing first calls would dial three times, and the
	// connection that wins need not be the one accepted first.
	if _, err := tr.getConn(addr); err != nil {
		t.Fatalf("getConn: %v", err)
	}
	errc := make(chan error, 3)
	for nonce := uint64(1); nonce <= 3; nonce++ {
		go func(nonce uint64) { errc <- checkedTrans(tr, port, nonce) }(nonce)
	}
	for i := 0; i < 3; i++ {
		if err := <-errc; err == nil {
			t.Fatal("a caller got a reply from a server that sent none")
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counters["rpc.transport_errors"]; n != 3 {
		t.Errorf("rpc.transport_errors = %d, want 3", n)
	}
	if n := snap.Counters["rpc.timeouts"]; n != 0 {
		t.Errorf("rpc.timeouts = %d, want 0: nobody waited for a deadline", n)
	}
	if err := checkedTrans(tr, port, 4); err != nil {
		t.Fatalf("transport did not recover on a fresh connection: %v", err)
	}
}

// TestReceiveTurnSinkErrorFailsTheQueueBehindIt: a streamed Call holds the
// turn while a Trans waits behind it; the sink gives up on the first
// frame. The stream caller gets the sink's error, the queued caller a
// transport error, and the next call runs on a fresh connection.
func TestReceiveTurnSinkErrorFailsTheQueueBehindIt(t *testing.T) {
	streamRead := make(chan struct{})
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader, n int) {
		if n > 0 {
			serveEcho(conn, br)
			return
		}
		s, err := readFakeReq(br)
		if err != nil {
			return
		}
		close(streamRead)
		if _, err := readFakeReq(br); err != nil {
			return
		}
		// Only now, with the second caller queued behind the stream, does
		// the first (non-final) frame go out.
		_ = writeFrame(conn, magicReplyMore, 0, s.port, Header{Status: StatusOK}, []byte("frame 0"))
		_, _ = readFakeReq(br) // hold the connection open until the client drops it
	})
	tr, port, reg := pipelineTransport(t, addr, 10*time.Second)
	errSink := errors.New("sink gave up")
	streamErr := make(chan error, 1)
	go func() {
		_, _, err := tr.Call(port, CallOpts{}, Header{Command: cmdPipelineStream}, nil, func(Header, []byte, bool) error { return errSink })
		streamErr <- err
	}()
	<-streamRead // the stream holds ticket 0
	queuedErr := make(chan error, 1)
	go func() { queuedErr <- checkedTrans(tr, port, 9) }()

	if err := <-streamErr; !errors.Is(err, errSink) {
		t.Fatalf("streamed Call = %v, want the sink's own error", err)
	}
	if err := <-queuedErr; !errors.Is(err, errStreamAbandoned) {
		t.Fatalf("queued Trans = %v, want errStreamAbandoned", err)
	}
	if n := reg.Snapshot().Counters["rpc.transport_errors"]; n != 1 {
		t.Errorf("rpc.transport_errors = %d, want 1 (the queued caller; a sink error is the caller's own)", n)
	}
	if err := checkedTrans(tr, port, 10); err != nil {
		t.Fatalf("transport did not recover on a fresh connection: %v", err)
	}
}

// TestReceiveTurnSinkPanicDropsTheConnection: a streamed Call whose sink
// panics leaves by the panic while holding the receive turn. The
// connection must go with it: once the caller has recovered, the next call
// on the same transport runs on a fresh connection instead of queueing for
// a turn nobody will pass on.
func TestReceiveTurnSinkPanicDropsTheConnection(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader, n int) {
		if n > 0 {
			serveEcho(conn, br)
			return
		}
		s, err := readFakeReq(br)
		if err != nil {
			return
		}
		// One non-final frame, then this connection answers like any other.
		_ = writeFrame(conn, magicReplyMore, 0, s.port, Header{Status: StatusOK}, []byte("frame 0"))
		serveEcho(conn, br)
	})
	tr, port, reg := pipelineTransport(t, addr, 10*time.Second)
	const boom = "sink panicked"
	func() {
		defer func() {
			if r := recover(); r != boom {
				t.Fatalf("recovered %v, want the sink's own panic", r)
			}
		}()
		_, _, _ = tr.Call(port, CallOpts{}, Header{Command: cmdPipelineStream}, nil, func(Header, []byte, bool) error { panic(boom) })
	}()

	done := make(chan error, 1)
	go func() { done <- checkedTrans(tr, port, 1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after the panicking sink: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("the call after a panicking sink still waits for the receive turn")
	}
	if n := reg.Snapshot().Counters["rpc.transport_errors"]; n != 0 {
		t.Errorf("rpc.transport_errors = %d, want 0 (a panicking sink is the caller's own failure)", n)
	}
}

// TestPipelineTransStartsNothingPerCall: a Trans on a warm connection
// runs on the caller's goroutine alone and allocates no more than it did
// with one lock around the whole transaction.
func TestPipelineTransStartsNothingPerCall(t *testing.T) {
	var base, grew atomic.Int64
	mux := NewMux(0)
	port := capability.PortFromString("pipeline")
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		// Runs on the server's connection goroutine while the caller is
		// inside Trans: any goroutine started for the call exists now.
		if n := int64(runtime.NumGoroutine()); !base.CompareAndSwap(0, n) && n > base.Load() {
			grew.Store(n)
		}
		return Header{Status: StatusOK}, nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 10*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup

	payload := []byte("warm")
	call := func() {
		if _, _, err := tr.Trans(port, Header{Command: 1}, payload); err != nil {
			t.Fatalf("Trans: %v", err)
		}
	}
	call() // dial; the handler records the goroutine count of a call in progress
	allocs := testing.AllocsPerRun(200, call)
	if grew.Load() != 0 {
		t.Errorf("goroutines during a call: %d, then %d — something is started per call", base.Load(), grew.Load())
	}
	// Client and server share the process, so this counts both halves of
	// a transaction. It used to be 10: per-frame vectors and pooled
	// prologues, the server's per-request closures and dispatch state.
	// Each side now keeps its frame writer, request buffer and dispatch
	// state on the connection, and an empty reply allocates no payload, so
	// a warm transaction allocates nothing, under -race too.
	if limit := 0.0; allocs > limit {
		t.Errorf("Trans on a warm connection: %.0f allocs, want <= %.0f", allocs, limit)
	}
}

// TestPipelinedDeadlinesAreEachCallersOwn: the server never replies; two
// callers share the connection, the second 250 ms behind the first. Each
// must see a timeout no later than its own send + timeout — the second
// caller's send must not extend the first caller's read bound — and both
// are counted as timeouts.
func TestPipelinedDeadlinesAreEachCallersOwn(t *testing.T) {
	const timeout, gap, slack = 500 * time.Millisecond, 250 * time.Millisecond, 200 * time.Millisecond // slack < gap
	addr := fakeServer(t, func(_ net.Conn, br *bufio.Reader, _ int) {
		for {
			if _, err := readFakeReq(br); err != nil {
				return
			}
		}
	})
	tr, port, reg := pipelineTransport(t, addr, timeout)
	// Dial first, so neither measured call pays for it.
	if _, err := tr.getConn(addr); err != nil {
		t.Fatalf("getConn: %v", err)
	}
	type result struct {
		err     error
		elapsed time.Duration
	}
	results := make(chan result, 2)
	call := func() {
		start := time.Now()
		_, _, err := tr.Trans(port, Header{Command: 1}, nil)
		results <- result{err, time.Since(start)}
	}
	go call()
	time.Sleep(gap) // the gap IS the test's input
	go call()
	for i := 0; i < 2; i++ {
		r := <-results
		if !errors.Is(r.err, os.ErrDeadlineExceeded) {
			t.Errorf("caller returned %v, want a timeout", r.err)
		}
		if r.elapsed > timeout+slack {
			t.Errorf("caller returned after %v: its bound of %v was extended", r.elapsed, timeout)
		}
	}
	snap := reg.Snapshot()
	if n := snap.Counters["rpc.timeouts"]; n != 2 {
		t.Errorf("rpc.timeouts = %d, want 2", n)
	}
	if n := snap.Counters["rpc.transport_errors"]; n != 2 {
		t.Errorf("rpc.transport_errors = %d, want 2", n)
	}
}

// TestDialDoesNotHoldTheTransportLock: while a dial to address A hangs, a
// call to address B, and Close, still complete.
func TestDialDoesNotHoldTheTransportLock(t *testing.T) {
	addrB := fakeServer(t, func(conn net.Conn, br *bufio.Reader, _ int) { serveEcho(conn, br) })
	const addrA = "192.0.2.1:9" // never dialled: the injected dial parks on it
	portA, portB := capability.PortFromString("stuck"), capability.PortFromString("fine")
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{portA: addrA, portB: addrB}), 10*time.Second)
	dialling, release := make(chan struct{}), make(chan struct{})
	tr.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		if addr != addrA {
			return net.DialTimeout(network, addr, timeout)
		}
		close(dialling)
		<-release
		return nil, errors.New("unreachable")
	}
	stuck := make(chan error, 1)
	go func() {
		_, _, err := tr.Trans(portA, Header{Command: 1}, nil)
		stuck <- err
	}()
	<-dialling

	done := make(chan error, 1)
	go func() {
		err := checkedTrans(tr, portB, 1)
		if err == nil {
			err = tr.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("call to B, then Close, beside a pending dial to A: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("a pending dial to A blocks calls to B or Close")
	}
	close(release)
	if err := <-stuck; err == nil {
		t.Error("the call to A succeeded through a failed dial")
	}
}

// TestDialRaceKeepsOneConnection: two first calls to one address both
// dial; one connection is pooled, the loser's is closed, both calls work.
func TestDialRaceKeepsOneConnection(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn, br *bufio.Reader, _ int) { serveEcho(conn, br) })
	tr, port, _ := pipelineTransport(t, addr, 10*time.Second)
	var mu sync.Mutex
	var dialled []net.Conn
	both := make(chan struct{})
	tr.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		mu.Lock()
		dialled = append(dialled, conn)
		if len(dialled) == 2 {
			close(both)
		}
		mu.Unlock()
		<-both // neither returns until both have dialled
		return conn, err
	}
	errc := make(chan error, 2)
	for nonce := uint64(1); nonce <= 2; nonce++ {
		go func(nonce uint64) { errc <- checkedTrans(tr, port, nonce) }(nonce)
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("Trans: %v", err)
		}
	}
	tr.mu.Lock()
	pooled := tr.conns[addr]
	n := len(tr.conns)
	tr.mu.Unlock()
	if n != 1 || len(dialled) != 2 {
		t.Fatalf("%d pooled connections from %d dials, want 1 from 2", n, len(dialled))
	}
	for _, conn := range dialled {
		err := conn.SetDeadline(time.Time{}) // fails only on a closed connection
		if isPooled := conn == pooled.conn; isPooled == (err != nil) {
			t.Errorf("pooled = %v, SetDeadline = %v: the winner stays open, the loser is closed", isPooled, err)
		}
	}
}
