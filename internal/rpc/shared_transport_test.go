package rpc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"bulletfs/internal/capability"
)

// TestSharedTCPTransportConcurrency drives ONE pooled TCPTransport from
// many goroutines: transactions pipelined on the shared connection must
// never mix up replies.
func TestSharedTCPTransportConcurrency(t *testing.T) {
	mux := NewMux(0)
	port := capability.PortFromString("shared-tr")
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		// Echo the command back in the reply plus the payload, so any
		// reply/request mismatch is detectable.
		out := make([]byte, len(payload))
		copy(out, payload)
		return Header{Status: StatusOK, Command: req.Command, Arg: req.Arg}, out
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup

	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 10*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup

	const workers = 10
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 40; i++ {
				cmd := uint32(w*1000 + i)
				payload := bytes.Repeat([]byte{byte(w)}, w*97+1)
				rep, body, err := tr.Trans(port, Header{Command: cmd, Arg: uint64(w)}, payload)
				if err != nil {
					errc <- err
					return
				}
				if rep.Command != cmd || rep.Arg != uint64(w) {
					errc <- fmt.Errorf("worker %d got reply for command %d", w, rep.Command)
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
}
