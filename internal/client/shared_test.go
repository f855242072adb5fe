package client

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// countingProxy forwards loopback TCP to addr and counts the client's
// bytes as it reads them, before it forwards them: a counted byte has
// left the client, and every byte the server has read is already
// counted, so a reply never arrives before the request bytes it answers
// are in the count.
type countingProxy struct {
	mu        sync.Mutex
	cond      *sync.Cond
	delivered int  // guarded by mu; client → server bytes read so far
	gaveUp    bool // guarded by mu; set by waitDelivered's timer
}

func startCountingProxy(t *testing.T, addr string) (*countingProxy, string) {
	t.Helper()
	p := &countingProxy{}
	p.cond = sync.NewCond(&p.mu)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			down, err := lis.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				down.Close()
				return
			}
			wg.Add(2)
			go func() { // replies: server → client
				defer wg.Done()
				io.Copy(down, up) //nolint:errcheck // ends when either side closes
				down.Close()
			}()
			go func() { // requests: client → server, counted before the write
				defer wg.Done()
				defer up.Close()
				buf := make([]byte, 4096)
				for {
					n, err := down.Read(buf)
					if n > 0 {
						p.mu.Lock()
						p.delivered += n
						p.mu.Unlock()
						p.cond.Broadcast()
						if _, werr := up.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		lis.Close()
		wg.Wait()
	})
	return p, lis.Addr().String()
}

func (p *countingProxy) deliveredBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delivered
}

// waitDelivered blocks until at least want bytes have left the client, or
// limit passes; it reports which.
func (p *countingProxy) waitDelivered(want int, limit time.Duration) bool {
	timer := time.AfterFunc(limit, func() {
		p.mu.Lock()
		p.gaveUp = true
		p.mu.Unlock()
		p.cond.Broadcast()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.delivered < want && !p.gaveUp {
		p.cond.Wait()
	}
	return p.delivered >= want
}

// TestSharedClientKeepsServerFed: two goroutines share one Client. The
// server's handler holds the first READ until the second READ's bytes
// have left the client, so when the first reply is written the next
// request is already on its way — the server never has to park between
// the two. With one transaction in flight per connection the second
// request is not sent until the first reply arrives, and the handler
// gives up waiting.
func TestSharedClientKeepsServerFed(t *testing.T) {
	eng := newEngine(t)
	svc := bulletsvc.New(eng)
	mux := rpc.NewMux(0)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	proxy, proxyAddr := startCountingProxy(t, addr)

	var hold sync.Once
	var wantDelivered atomic.Int64 // 0 until the test arms the hold
	var starved atomic.Bool
	mux.RegisterStream(eng.Port(), func(tc *trace.Ctx, parent *trace.Span, req rpc.Header, payload []byte, emit rpc.Emitter) {
		if want := int(wantDelivered.Load()); req.Command == bulletsvc.CmdRead && want > 0 {
			hold.Do(func() { starved.Store(!proxy.waitDelivered(want, 3*time.Second)) })
		}
		svc.HandleStream(tc, parent, req, payload, emit)
	})

	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{eng.Port(): proxyAddr}), 10*time.Second)
	defer tr.Close() //nolint:errcheck // test cleanup
	cl := New(tr)
	data := bytes.Repeat([]byte{0x5a}, 4096)
	c, err := cl.Create(eng.Port(), data, 2)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// One READ alone measures a READ request's size on the wire.
	before := proxy.deliveredBytes()
	if _, err := cl.Read(c); err != nil {
		t.Fatalf("Read: %v", err)
	}
	after := proxy.deliveredBytes()
	wantDelivered.Store(int64(after + 2*(after-before)))

	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			got, err := cl.Read(c)
			if err == nil && !bytes.Equal(got, data) {
				t.Error("shared client returned another caller's bytes")
			}
			errc <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("Read on the shared client: %v", err)
		}
	}
	if starved.Load() {
		t.Fatal("the second request reached the server only after the first reply: the shared connection is not pipelined")
	}
}
