package bulletsvc_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
)

// The placement lifecycle: a CREATE's payload is read into a pinned,
// unpublished cache slot before the handler runs, and every way a request
// can end — created, refused, replayed, cut off mid-payload — must leave
// no pin, no arena byte and no file behind that the outcome does not
// account for.

// placeWorld is an engine behind the service on a TCP server.
type placeWorld struct {
	eng  *bullet.Server
	mux  *rpc.Mux
	addr string
}

func newPlaceWorld(t *testing.T, cacheBytes int64) *placeWorld {
	t.Helper()
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 8192)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs[i] = mem
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(set, 200); err != nil {
		t.Fatalf("Format: %v", err)
	}
	w := &placeWorld{mux: rpc.NewMux(0)}
	if w.eng, err = bullet.New(set, bullet.Options{CacheBytes: cacheBytes}); err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(w.eng.Sync)
	bulletsvc.New(w.eng).Register(w.mux)
	srv := rpc.NewTCPServer(w.mux)
	if w.addr, err = srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
	return w
}

func (w *placeWorld) dial(t *testing.T) *rpc.TCPTransport {
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{w.eng.Port(): w.addr}), 10*time.Second)
	t.Cleanup(func() { tr.Close() }) //nolint:errcheck // test cleanup
	return tr
}

// baseline is what a placement must give back: the cache's arena bytes
// and the live file count.
type baseline struct {
	used int64
	live int
}

func (w *placeWorld) baseline() baseline {
	return baseline{used: w.eng.CacheStats().UsedBytes, live: w.eng.Live()}
}

// settle waits for the write-through and for the server to finish with
// every connection's last request, then checks that no pin is left and
// that the arena and the file count are back at b.
func (w *placeWorld) settle(t *testing.T, b baseline) {
	t.Helper()
	w.eng.Sync()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := w.eng.CacheStats()
		if st.PinnedViews == 0 && st.UsedBytes == b.used && w.eng.Live() == b.live {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("placement left behind: %d pinned views, %d arena bytes used (want %d), %d live files (want %d)",
				st.PinnedViews, st.UsedBytes, b.used, w.eng.Live(), b.live)
		}
		time.Sleep(time.Millisecond)
	}
}

// rawCreate opens a connection of its own and sends a CREATE frame's
// prologue for an n-byte payload followed by the first len(part) payload
// bytes, and no more.
func (w *placeWorld) rawCreate(n int, part []byte) (net.Conn, error) {
	conn, err := net.Dial("tcp", w.addr)
	if err != nil {
		return nil, err
	}
	port := w.eng.Port()
	frame := binary.BigEndian.AppendUint32(nil, 0x414d5458) // "AMTX", docs/PROTOCOL.md
	frame = binary.BigEndian.AppendUint64(frame, 0)         // no txid
	frame = append(frame, port[:]...)
	frame = rpc.Header{Command: bulletsvc.CmdCreate, Arg: 1}.Encode(frame)
	frame = binary.BigEndian.AppendUint32(frame, uint32(n))
	if _, err := conn.Write(append(frame, part...)); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// waitPinned waits until the cache holds n pins: the server has placed
// the payloads in flight.
func (w *placeWorld) waitPinned(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for w.eng.CacheStats().PinnedViews != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d pinned views, want %d: the payload was not placed", w.eng.CacheStats().PinnedViews, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPlacementAbandonedWhenClientDropsMidPayload(t *testing.T) {
	w := newPlaceWorld(t, 1<<20)
	b := w.baseline()
	payload := bytes.Repeat([]byte{0x71}, 300<<10)
	conn, err := w.rawCreate(len(payload), payload[:len(payload)/2])
	if err != nil {
		t.Fatalf("rawCreate: %v", err)
	}
	w.waitPinned(t, 1)
	conn.Close()
	w.settle(t, b)
	if n := w.eng.Stats().Creates; n != 0 {
		t.Fatalf("%d creates from a payload that never arrived", n)
	}
}

// TestPlacementDedupReplayLeavesOneFile: the retry of a CREATE whose reply
// was lost is a replay of the retained reply, not a second create, and it
// takes no placement either: with the arena full of unpinned cached files,
// placing the replay's payload would evict one of them for nothing.
func TestPlacementDedupReplayLeavesOneFile(t *testing.T) {
	const size = 40<<10 + 7 // a 41 472-byte slot: 81 blocks of 512
	const fillers = 4
	w := newPlaceWorld(t, (fillers+1)*81*512)
	b := w.baseline()
	port := w.eng.Port()
	creates := w.eng.Stats().Creates
	filler := client.New(w.dial(t))
	var fill []capability.Capability
	for i := 0; i < fillers; i++ {
		c, err := filler.Create(port, bytes.Repeat([]byte{byte(i)}, size), 2)
		if err != nil {
			t.Fatalf("Create filler %d: %v", i, err)
		}
		fill = append(fill, c)
	}

	flaky := rpc.NewFlaky(w.dial(t), 0, 0, 1)
	flaky.ScriptDrops([]bool{false, false}, []bool{true, false}) // the first reply is lost
	// The retry's injected delay is where its evictions start to count.
	flaky.ScriptDelays([]time.Duration{0, time.Nanosecond})
	var beforeReplay int64 = -1
	flaky.SetSleep(func(time.Duration) { beforeReplay = w.eng.CacheStats().Evictions })
	retrier := rpc.NewRetrier(flaky, 3)
	retrier.SetBackoff(time.Millisecond, time.Millisecond)
	cl := client.New(retrier)
	data := bytes.Repeat([]byte{0x5e}, size)
	c, err := cl.Create(port, data, 2)
	if err != nil {
		t.Fatalf("Create through a lost reply: %v", err)
	}
	if flaky.Requests != 2 || beforeReplay < 0 {
		t.Fatalf("%d attempts, want 2 (the retry is the replay): %s", flaky.Requests, flaky.Schedule())
	}
	if n := w.eng.CacheStats().Evictions - beforeReplay; n != 0 {
		t.Fatalf("the replay evicted %d cached files: it made room for a placement it never used", n)
	}
	if n := w.eng.Stats().Creates - creates; n != fillers+1 {
		t.Fatalf("%d creates, want %d: the retry must replay, not create again", n, fillers+1)
	}
	if got, err := cl.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read = %d bytes, %v", len(got), err)
	}
	for _, f := range append(fill, c) {
		if err := cl.Delete(f); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	w.settle(t, b)
}

func TestPlacementFallsBackUncachedWhenArenaPinnedSolid(t *testing.T) {
	const cacheBytes = 64 << 10
	w := newPlaceWorld(t, cacheBytes)
	b := w.baseline()
	cl := client.New(w.dial(t))
	port := w.eng.Port()

	// Fill the arena with files and hold a pin on each: nothing is left to
	// evict, so the next placement is refused.
	var fill []capability.Capability
	var held []*bullet.ReadLease
	for i := 0; i < 4; i++ {
		c, err := cl.Create(port, bytes.Repeat([]byte{byte(i)}, cacheBytes/4), 2)
		if err != nil {
			t.Fatalf("Create filler %d: %v", i, err)
		}
		fill = append(fill, c)
		l, err := w.eng.ReadView(nil, nil, c, 0, -1)
		if err != nil || !l.Pinned() {
			t.Fatalf("ReadView filler %d: %v (pinned %v)", i, err, l != nil && l.Pinned())
		}
		held = append(held, l)
	}
	w.eng.Sync()
	uncached := w.eng.Metrics().Counter("bullet.uncached_creates")
	before := uncached.Load()

	data := bytes.Repeat([]byte("uncached, still exact "), 500)
	c, err := cl.Create(port, data, 0)
	if err != nil {
		t.Fatalf("Create into a pinned-solid arena: %v", err)
	}
	if got := uncached.Load() - before; got != 1 {
		t.Fatalf("bullet.uncached_creates moved by %d, want 1", got)
	}
	if got, err := cl.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read of the uncached file = %d bytes, %v", len(got), err)
	}

	for _, l := range held {
		l.Release()
	}
	for _, f := range append(fill, c) {
		if err := cl.Delete(f); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	w.settle(t, b)
}

func TestPlacementThroughLocal(t *testing.T) {
	w := newPlaceWorld(t, 1<<20)
	b := w.baseline()
	local := rpc.NewLocal(w.mux)
	port := w.eng.Port()
	data := bytes.Repeat([]byte{0x4c}, 64<<10+100)

	// A CREATE refused at the door never reaches the engine's create, yet
	// its payload was placed before the dispatch — and then abandoned.
	var clock atomic.Int64
	w.mux.SetNow(func() int64 { return clock.Add(int64(time.Second)) }) // every budget is spent on arrival
	h, _, err := local.Call(port, rpc.CallOpts{Budget: time.Millisecond}, rpc.Header{Command: bulletsvc.CmdCreate, Arg: 1}, data, nil)
	if err != nil || h.Status != rpc.StatusDeadlineExceeded {
		t.Fatalf("late CREATE = %v, %v; want StatusDeadlineExceeded", h.Status, err)
	}
	if st := w.eng.CacheStats(); st.Insertions != 1 || st.Files != 0 || st.PinnedViews != 0 {
		t.Fatalf("cache after a shed CREATE: %+v; want its payload placed, then abandoned", st)
	}
	w.mux.SetNow(nil)

	cl := client.New(local)
	c, err := cl.Create(port, data, 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	// One more placement, adopted: the create made no slot of its own.
	if st := w.eng.CacheStats(); st.Insertions != 2 || st.Files != 1 {
		t.Fatalf("cache after one placed create: %+v", st)
	}
	if got, err := cl.Read(c); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read = %d bytes, %v", len(got), err)
	}
	if err := cl.Delete(c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// A create the engine refuses (P-FACTOR beyond the replica count)
	// gives its placement back.
	if _, err := cl.Create(port, data, 3); !errors.Is(err, bullet.ErrBadPFactor) {
		t.Fatalf("Create at P-FACTOR 3 on 2 disks = %v, want ErrBadPFactor", err)
	}
	w.settle(t, b)
}

// TestConcurrentPlacementLifecycle races whole creates, deletes and
// payloads cut off mid-frame on separate connections; afterwards every
// placement has been adopted and settled, or abandoned.
func TestConcurrentPlacementLifecycle(t *testing.T) {
	w := newPlaceWorld(t, 1<<20)
	b := w.baseline()
	const workers, rounds = 4, 8
	var wg sync.WaitGroup
	errs := make(chan error, 2*workers*rounds)
	for g := 0; g < workers; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			cl := client.New(w.dial(t))
			for i := 0; i < rounds; i++ {
				data := bytes.Repeat([]byte{byte(g*rounds + i)}, 1000*(g+1)+i)
				c, err := cl.Create(w.eng.Port(), data, i%3)
				if err == nil {
					var got []byte
					if got, err = cl.Read(c); err == nil && !bytes.Equal(got, data) {
						err = errors.New("read back different bytes")
					}
					if err == nil {
						err = cl.Delete(c)
					}
				}
				if err != nil {
					errs <- err
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				conn, err := w.rawCreate(20<<10, make([]byte, 10<<10))
				if err != nil {
					errs <- err
					continue
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	w.settle(t, b)
}
