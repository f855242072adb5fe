package rpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
)

// These tests point raw sockets at the TCP server: a production file
// server must shrug off garbage, truncated frames and oversized claims
// without crashing or wedging other clients.

func newEchoServer(t *testing.T) (string, capability.Port, *TCPServer) {
	t.Helper()
	mux := NewMux(0)
	port := capability.PortFromString("robust")
	mux.Register(port, echoHandler)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
	return addr, port, srv
}

func checkStillServing(t *testing.T, addr string, port capability.Port) {
	t.Helper()
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 5*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	rep, body, err := tr.Trans(port, Header{Command: 1}, []byte("alive?"))
	if err != nil || rep.Status != StatusOK || !bytes.Equal(body, []byte("alive?")) {
		t.Fatalf("server unhealthy after abuse: %v %v %q", err, rep.Status, body)
	}
}

func TestTCPServerSurvivesGarbageBytes(t *testing.T) {
	addr, port, _ := newEchoServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := conn.Write(bytes.Repeat([]byte("not a frame at all "), 100)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// The server must drop the connection (bad magic), not hang it.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server replied to garbage")
	}
	conn.Close()
	checkStillServing(t, addr, port)
}

func TestTCPServerSurvivesTruncatedFrame(t *testing.T) {
	addr, port, _ := newEchoServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	// A valid prefix that claims a payload, then hang up mid-payload.
	var buf bytes.Buffer
	if err := writeFrame(&buf, magicRequest, 1, port, Header{Command: 1}, bytes.Repeat([]byte{1}, 1000)); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if _, err := conn.Write(buf.Bytes()[:buf.Len()-500]); err != nil {
		t.Fatalf("Write: %v", err)
	}
	conn.Close()
	checkStillServing(t, addr, port)
}

func TestTCPServerRejectsOversizedPayloadClaim(t *testing.T) {
	addr, port, _ := newEchoServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	// Hand-build a frame header claiming a payload far past MaxPayload.
	var frame bytes.Buffer
	var scratch [12]byte
	binary.BigEndian.PutUint32(scratch[0:4], magicRequest)
	binary.BigEndian.PutUint64(scratch[4:12], 7)
	frame.Write(scratch[:12])
	frame.Write(port[:])
	frame.Write(Header{Command: 1}.Encode(nil))
	binary.BigEndian.PutUint32(scratch[0:4], uint32(MaxPayload+1))
	frame.Write(scratch[:4])
	if _, err := conn.Write(frame.Bytes()); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// The server must drop the connection instead of allocating 64 MB+.
	conn.SetReadDeadline(time.Now().Add(3 * time.Second)) //nolint:errcheck
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("server replied to an oversized claim")
	}
	checkStillServing(t, addr, port)
}

func TestTCPServerSurvivesAbruptDisconnects(t *testing.T) {
	addr, port, _ := newEchoServer(t)
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		// Half of them send a partial frame first.
		if i%2 == 0 {
			conn.Write([]byte{0x41, 0x4d}) //nolint:errcheck
		}
		conn.Close()
	}
	checkStillServing(t, addr, port)
}

func TestTCPClientReconnectsAfterServerRestart(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("restarting")
	mux.Register(port, echoHandler)
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 5*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	if _, _, err := tr.Trans(port, Header{}, []byte("one")); err != nil {
		t.Fatalf("first Trans: %v", err)
	}

	// Server restarts on the same address.
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv2 := NewTCPServer(mux)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-Listen: %v", err)
	}
	defer srv2.Close() //nolint:errcheck // test cleanup

	// The pooled connection is dead; the first call fails, the retry
	// machinery (as a client would use) succeeds on a fresh dial.
	retr := NewRetrier(tr, 3)
	rep, body, err := retr.Trans(port, Header{}, []byte("two"))
	if err != nil || rep.Status != StatusOK || !bytes.Equal(body, []byte("two")) {
		t.Fatalf("Trans after restart: %v %v %q", err, rep.Status, body)
	}
}

// TestOversizedCallLeavesSharedConnectionAlone: a payload over MaxPayload
// is refused at the client before it touches the pooled connection, so a
// call already in flight on that connection still gets its reply, the
// connection serves the next call, and no transport error is counted.
func TestOversizedCallLeavesSharedConnectionAlone(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("oversized")
	entered, release := make(chan struct{}), make(chan struct{})
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		if req.Command == 1 {
			close(entered)
			<-release
		}
		return ReplyOK(), []byte("done")
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 10*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	reg := stats.NewRegistry()
	tr.AttachMetrics(reg)
	var once sync.Once
	letGo := func() { once.Do(func() { close(release) }) }
	defer letGo() // before srv.Close, which waits for the handler

	inflight := make(chan error, 1)
	go func() {
		_, body, err := tr.Trans(port, Header{Command: 1}, []byte("in flight"))
		if err == nil && string(body) != "done" {
			err = errors.New("wrong reply")
		}
		inflight <- err
	}()
	<-entered
	tr.mu.Lock()
	conn := tr.conns[addr]
	tr.mu.Unlock()

	oversized := make([]byte, MaxPayload+1)
	if _, _, err := tr.Trans(port, Header{Command: 2}, oversized); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized call: %v, want ErrPayloadTooLarge", err)
	}
	// A retrying caller gives up at once: every attempt would fail alike.
	counted := NewFlaky(tr, 0, 0, 1)
	if _, _, err := NewRetrier(counted, 3).Trans(port, Header{Command: 2}, oversized); !errors.Is(err, ErrPayloadTooLarge) || counted.Requests != 1 {
		t.Fatalf("oversized call through a Retrier: %v after %d attempts, want ErrPayloadTooLarge after 1", err, counted.Requests)
	}
	letGo()
	if err := <-inflight; err != nil {
		t.Fatalf("the call in flight on the shared connection: %v", err)
	}
	if _, body, err := tr.Trans(port, Header{Command: 2}, nil); err != nil || string(body) != "done" {
		t.Fatalf("next call: %q, %v", body, err)
	}
	tr.mu.Lock()
	reused := tr.conns[addr] == conn
	tr.mu.Unlock()
	if !reused {
		t.Fatal("the oversized call cost the connection: the next call dialled a new one")
	}
	if n := reg.Snapshot().Counters["rpc.transport_errors"]; n != 0 {
		t.Fatalf("rpc.transport_errors = %d, want 0", n)
	}
}
