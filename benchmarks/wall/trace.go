package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// The traced run records spans from the harness's own files, around the
// calls into each layer's public functions: client.Client methods (root
// span "client"), rpc.Transport.Trans ("rpc"), Service.HandleStream
// ("bulletsvc"), the rpc.Emitter the service replies through ("rpc.emit":
// the reply's socket write happens inside the handler) and disk.Device I/O
// ("disk.read", "disk.write", "disk.sync"). It drives one connection with
// one request in flight and lets the replica set drain after every call,
// so the open span of each kind is a single value, a span's parent is
// whatever is open when it starts, and no write-through left over from
// one request can start inside the next.

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0: root, or device I/O after the reply (background)
	Req    int64  `json:"req"`    // client call this span belongs to; 0 for background
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

type tracer struct {
	t0     time.Time
	on     atomic.Bool
	nextID atomic.Int64

	// The open request and the open span of each kind (0: none). A span
	// is published here after its start is read and withdrawn before its
	// end is, and a child reads its own start before it looks its parent
	// up, so a child that finds a parent open started inside it.
	req, client, rpc, svc atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// bulletClient is the part of client.Client the workloads call; the
// traced run puts a root span around each call, tests substitute a fake.
type bulletClient interface {
	Read(c capability.Capability) ([]byte, error)
	ReadRange(c capability.Capability, offset, n int64) ([]byte, error)
	Create(port capability.Port, data []byte, pfactor int) (capability.Capability, error)
	Delete(c capability.Capability) error
}

type tracedClient struct {
	inner *client.Client
	t     *tracer
	// drain waits for device I/O no reply waited for (ReplicaSet.Drain).
	drain func()
}

// call opens a new request and its root span around fn, then lets the
// request's background I/O finish: device spans that start between two
// client spans are background, and every device span that starts inside a
// service span belongs to that request.
func (c tracedClient) call(bytes int, fn func()) {
	id := c.t.nextID.Add(1)
	start := c.t.now()
	c.t.req.Store(id)
	c.t.client.Store(id)
	fn()
	c.t.client.Store(0)
	c.t.add(span{ID: id, Req: id, Name: "client", Start: start, End: c.t.now(), Bytes: int64(bytes)})
	c.drain()
}

func (c tracedClient) Read(k capability.Capability) (b []byte, err error) {
	c.call(0, func() { b, err = c.inner.Read(k) })
	return b, err
}

func (c tracedClient) ReadRange(k capability.Capability, offset, n int64) (b []byte, err error) {
	c.call(0, func() { b, err = c.inner.ReadRange(k, offset, n) })
	return b, err
}

func (c tracedClient) Create(port capability.Port, data []byte, pfactor int) (k capability.Capability, err error) {
	c.call(len(data), func() { k, err = c.inner.Create(port, data, pfactor) })
	return k, err
}

func (c tracedClient) Delete(k capability.Capability) (err error) {
	c.call(0, func() { err = c.inner.Delete(k) })
	return err
}

// tracedTransport is the rpc.Transport handed to client.New.
type tracedTransport struct {
	inner rpc.Transport
	t     *tracer
}

func (tt tracedTransport) Trans(port capability.Port, req rpc.Header, payload []byte) (rpc.Header, []byte, error) {
	parent := tt.t.client.Load()
	if parent == 0 {
		return tt.inner.Trans(port, req, payload) // set-up traffic, not a workload op
	}
	id := tt.t.nextID.Add(1)
	start := tt.t.now()
	tt.t.rpc.Store(id)
	h, body, err := tt.inner.Trans(port, req, payload)
	tt.t.rpc.Store(0)
	end := tt.t.now()
	tt.t.add(span{ID: id, Parent: parent, Req: parent, Name: "rpc", Start: start, End: end, Bytes: int64(len(payload) + len(body))})
	return h, body, err
}

// tracedHandler wraps Service.HandleStream for mux.RegisterStream.
func tracedHandler(inner rpc.StreamHandler, t *tracer) rpc.StreamHandler {
	return func(tc *trace.Ctx, parent *trace.Span, req rpc.Header, payload []byte, emit rpc.Emitter) {
		id := t.nextID.Add(1)
		start := t.now()
		up := t.rpc.Load()
		reqID := t.req.Load()
		t.svc.Store(id)
		inner(tc, parent, req, payload, func(h rpc.Header, p rpc.Payload, last bool) error {
			eid, estart := t.nextID.Add(1), t.now()
			err := emit(h, p, last)
			t.add(span{ID: eid, Parent: id, Req: reqID, Name: "rpc.emit", Start: estart, End: t.now(), Bytes: int64(len(p.Data))})
			return err
		})
		t.svc.Store(0)
		end := t.now()
		if up != 0 {
			t.add(span{ID: id, Parent: up, Req: reqID, Name: "bulletsvc", Start: start, End: end})
		}
	}
}

// tracedDevice wraps each FileDisk given to NewReplicaSet. I/O that
// starts while no service span is open is background work: the
// write-through a reply did not wait for, started only after it.
type tracedDevice struct {
	disk.Device
	t *tracer
}

func (d tracedDevice) io(name string, n int, fn func() error) error {
	id := d.t.nextID.Add(1)
	start := d.t.now()
	parent := d.t.svc.Load()
	var req int64
	if parent != 0 {
		req = d.t.req.Load()
	}
	err := fn()
	d.t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: d.t.now(), Bytes: int64(n)})
	return err
}

func (d tracedDevice) ReadAt(p []byte, off int64) error {
	return d.io("disk.read", len(p), func() error { return d.Device.ReadAt(p, off) })
}

func (d tracedDevice) WriteAt(p []byte, off int64) error {
	return d.io("disk.write", len(p), func() error { return d.Device.WriteAt(p, off) })
}

func (d tracedDevice) Sync() error {
	return d.io("disk.sync", 0, func() error { return d.Device.Sync() })
}

// interval is a half-open stretch of the trace clock.
type interval struct{ start, end int64 }

func (s span) interval() interval { return interval{s.Start, s.End} }

func (iv interval) clip(to interval) interval {
	iv.start, iv.end = max(iv.start, to.start), min(iv.end, to.end)
	if iv.end < iv.start {
		iv.end = iv.start
	}
	return iv
}

func (iv interval) len() int64 { return iv.end - iv.start }

// covered is the length of the union of ivs, each clipped to within.
// Children may overlap (the two replica writes of a P-FACTOR-2 create run
// in parallel), so their durations cannot simply be added.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if c := iv.clip(within); c.len() > 0 {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, edge int64
	edge = within.start
	for _, c := range clipped {
		if c.end <= edge {
			continue
		}
		total += c.end - max(c.start, edge)
		edge = c.end
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(s interval, children []interval) int64 {
	return s.len() - covered(s, children)
}

// layerTimes is where one request's client span went. The four self
// times partition the client span exactly, because each layer's span is
// clipped to its parent's before its children are subtracted. A span may
// end after its parent (a handler still has work to do once it has
// replied; write-through outlives the reply) but cannot start outside it:
// orphans counts the spans that do, which are spans recorded against the
// wrong request, and shows what the sum no longer can.
type layerTimes struct {
	total, client, rpc, bullet, disk int64
	orphans                          int
}

// outside is how much of iv lies outside parent.
func (iv interval) outside(parent interval) int64 {
	return iv.len() - iv.clip(parent).len()
}

// orphan is 1 if iv starts outside parent.
func (iv interval) orphan(parent interval) int {
	if iv.start < parent.start || iv.start > parent.end {
		return 1
	}
	return 0
}

// breakdown attributes every client span to the layers and adds up the
// device time no request waited for.
func breakdown(spans []span) (perReq map[int64]layerTimes, background int64) {
	byReq := make(map[int64][]span)
	for _, s := range spans {
		if s.Req == 0 {
			background += s.dur()
			continue
		}
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	perReq = make(map[int64]layerTimes, len(byReq))
	for req, ss := range byReq {
		var c, r, v interval
		var devs, emits []interval
		for _, s := range ss {
			switch s.Name {
			case "client":
				c = s.interval()
			case "rpc":
				r = s.interval()
			case "bulletsvc":
				v = s.interval()
			case "rpc.emit":
				emits = append(emits, s.interval())
			default:
				devs = append(devs, s.interval())
			}
		}
		if c.len() == 0 {
			continue // the request's root span was not recorded
		}
		lt := layerTimes{total: c.len(), orphans: r.orphan(c) + v.orphan(r)}
		for _, child := range append(append([]interval(nil), emits...), devs...) {
			lt.orphans += child.orphan(v)
		}
		r = r.clip(c)
		v = v.clip(r)
		lt.client = selfTime(c, []interval{r})
		lt.disk = covered(v, devs)
		// Writing the reply is rpc's work although it runs inside the
		// service span.
		emit := covered(v, append(emits, devs...)) - lt.disk
		lt.rpc = selfTime(r, []interval{v}) + emit
		lt.bullet = v.len() - lt.disk - emit
		for _, d := range devs {
			background += d.outside(v)
		}
		perReq[req] = lt
	}
	return perReq, background
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
