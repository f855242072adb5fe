package rpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// fakePlacement is a Placement the test's handler adopts by command.
type fakePlacement struct {
	w         *placeWorld
	buf       []byte
	adopted   bool // under w.mu
	abandoned int  // under w.mu; calls that gave the placement back
}

func (p *fakePlacement) Bytes() []byte { return p.buf }

func (p *fakePlacement) Abandon() {
	p.w.mu.Lock()
	defer p.w.mu.Unlock()
	if !p.adopted {
		p.abandoned++
		p.adopted = true // a second Abandon gives nothing back
	}
}

const (
	cmdPlaceAdopt  = 1 // the handler adopts the placement
	cmdPlaceIgnore = 2 // the handler leaves it to the rpc layer
	cmdPlaceNone   = 3 // the placer declines: the payload goes to the transport's buffer
)

// placeWorld is a mux whose placer hands out fakePlacements and whose
// handler checks that the payload it got is the placement's bytes.
type placeWorld struct {
	mux  *Mux
	port capability.Port

	mu     sync.Mutex
	placed []*fakePlacement // under mu
	wrong  int              // under mu; payloads that were not their placement's bytes
}

func newPlaceWorld() *placeWorld {
	w := &placeWorld{mux: NewMux(0), port: capability.PortFromString("place")}
	w.mux.RegisterPlaced(w.port, func(_ *trace.Ctx, _ *trace.Span, req Header, payload []byte, emit Emitter) {
		w.mu.Lock()
		if req.Command != cmdPlaceNone && len(payload) > 0 {
			p := w.placed[len(w.placed)-1]
			if &payload[0] != &p.buf[0] {
				w.wrong++
			}
			if req.Command == cmdPlaceAdopt {
				p.adopted = true
			}
		}
		w.mu.Unlock()
		_ = emit(Header{Status: StatusOK, Arg: uint64(len(payload))}, Plain(nil), true)
	}, func(req Header, n int) Placement {
		if req.Command == cmdPlaceNone {
			return nil
		}
		p := &fakePlacement{w: w, buf: make([]byte, n)}
		w.mu.Lock()
		w.placed = append(w.placed, p)
		w.mu.Unlock()
		return p
	})
	return w
}

// tally reports placements made, abandoned, and payloads read elsewhere.
func (w *placeWorld) tally() (placed, abandoned, wrong int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range w.placed {
		abandoned += p.abandoned
	}
	return len(w.placed), abandoned, w.wrong
}

// waitTally waits for the tally to read placed, abandoned and no payload
// read elsewhere. The TCP server abandons a placement once the dispatch
// is over, after the reply has gone out, so the client may see the reply
// first.
func (w *placeWorld) waitTally(t *testing.T, placed, abandoned int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, a, wrong := w.tally()
		if p == placed && a == abandoned && wrong == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d placed, %d abandoned, %d payloads elsewhere; want %d, %d, 0", p, a, wrong, placed, abandoned)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPlacedPayloadAdoptedOrAbandoned(t *testing.T) {
	for _, tt := range tableTransports[:2] { // tcp, local
		t.Run(tt.name, func(t *testing.T) {
			w := newPlaceWorld()
			tr := tt.dial(t, w.mux, w.port).(Caller)
			payload := []byte("straight into its placement")
			for _, cmd := range []uint32{cmdPlaceAdopt, cmdPlaceIgnore, cmdPlaceNone} {
				h, _, err := tr.Call(w.port, CallOpts{}, Header{Command: cmd}, payload, nil)
				if err != nil || h.Arg != uint64(len(payload)) {
					t.Fatalf("command %d: %+v, %v", cmd, h, err)
				}
			}
			// An empty payload is never placed.
			if _, _, err := tr.Call(w.port, CallOpts{}, Header{Command: cmdPlaceAdopt}, nil, nil); err != nil {
				t.Fatalf("empty payload: %v", err)
			}
			// A duplicate is replayed without a placement: its reply is
			// retained, so the handler never runs.
			for i := 0; i < 2; i++ {
				if _, _, err := tr.Call(w.port, CallOpts{TxID: 99}, Header{Command: cmdPlaceAdopt}, payload, nil); err != nil {
					t.Fatalf("txid 99, attempt %d: %v", i, err)
				}
			}
			w.waitTally(t, 3, 1) // the ignored one is given back
		})
	}
}

// A payload cut off mid-frame is abandoned as the connection drops.
func TestPlacedPayloadAbandonedOnShortRead(t *testing.T) {
	w := newPlaceWorld()
	srv := NewTCPServer(w.mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test cleanup
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	var pro [prologueLen]byte
	encodePrologue(pro[:], magicRequest, 0, w.port, Header{Command: cmdPlaceAdopt}, 1000)
	if _, err := conn.Write(append(pro[:], make([]byte, 400)...)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	conn.Close()
	w.waitTally(t, 1, 1)
}
