package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCtxNilSafe(t *testing.T) {
	var c *Ctx
	c.Reset(1)
	sp := c.Begin(nil, LayerRPC, OpRequest)
	if sp != nil {
		t.Fatalf("nil Ctx Begin returned %v, want nil", sp)
	}
	c.End(sp)
	c.Add(nil, LayerDisk, OpDiskRead, time.Now(), 5)
	c.Finish()
	if c.Active() {
		t.Fatal("nil Ctx reports Active")
	}
}

func TestCtxSpanTreeShape(t *testing.T) {
	rec := NewRecorder(WithCapacity(4, 4))
	c := rec.AcquireCtx()
	defer rec.ReleaseCtx(c)

	c.Reset(0xabcd)
	root := c.Begin(nil, LayerRPC, OpRequest)
	root.Cmd = 2
	eng := c.Begin(root, LayerEngine, OpRead)
	eng.Inode = 7
	eng.Bytes = 4096
	look := c.Begin(eng, LayerCache, OpCacheLookup)
	look.CacheHit = CacheMiss
	c.End(look)
	c.End(eng)
	c.End(root)
	c.Finish()

	got := rec.Recent()
	if len(got) != 1 {
		t.Fatalf("recent ring has %d traces, want 1", len(got))
	}
	tr := got[0]
	if tr.ID != 0xabcd || tr.N != 3 {
		t.Fatalf("trace ID=%x N=%d, want ID=abcd N=3", tr.ID, tr.N)
	}
	if tr.Spans[0].Parent != NoParent {
		t.Fatalf("root parent = %d, want NoParent", tr.Spans[0].Parent)
	}
	if tr.Spans[1].Parent != tr.Spans[0].ID || tr.Spans[2].Parent != tr.Spans[1].ID {
		t.Fatal("span parent chain broken")
	}
	for i := 0; i < tr.N; i++ {
		if tr.Spans[i].Dur < 0 {
			t.Fatalf("span %d still pending after End", i)
		}
	}
	if tr.Spans[2].CacheHit != CacheMiss {
		t.Fatal("cache-hit attribute lost")
	}
	if tr.Start != tr.Spans[0].Start {
		t.Fatal("trace Start != root span Start")
	}
}

func TestCtxArenaOverflowSetsDropped(t *testing.T) {
	rec := NewRecorder(WithCapacity(2, 2))
	c := rec.AcquireCtx()
	defer rec.ReleaseCtx(c)

	c.Reset(1)
	root := c.Begin(nil, LayerRPC, OpRequest)
	for i := 0; i < MaxSpans+5; i++ {
		sp := c.Begin(root, LayerEngine, OpRead)
		c.End(sp)
	}
	c.End(root)
	c.Finish()
	got := rec.Recent()
	if len(got) != 1 || !got[0].Dropped || got[0].N != MaxSpans {
		t.Fatalf("overflow trace: len=%d dropped=%v n=%d, want 1/true/%d",
			len(got), got[0].Dropped, got[0].N, MaxSpans)
	}
}

func TestRecorderOverwritesOldest(t *testing.T) {
	rec := NewRecorder(WithCapacity(3, 1))
	for i := 1; i <= 5; i++ {
		c := rec.AcquireCtx()
		c.Reset(uint64(i))
		c.End(c.Begin(nil, LayerRPC, OpRequest))
		c.Finish()
		rec.ReleaseCtx(c)
	}
	got := rec.Recent()
	if len(got) != 3 {
		t.Fatalf("ring holds %d traces, want 3", len(got))
	}
	ids := map[uint64]bool{}
	for _, tr := range got {
		ids[tr.ID] = true
	}
	for _, want := range []uint64{3, 4, 5} {
		if !ids[want] {
			t.Fatalf("ring %v missing trace %d (oldest not overwritten?)", ids, want)
		}
	}
	if rec.Recorded() != 5 {
		t.Fatalf("Recorded()=%d, want 5", rec.Recorded())
	}
}

// finishTrace records one trace of id with a root and depth-1 nested
// children.
func finishTrace(rec *Recorder, id uint64, depth int) {
	c := rec.AcquireCtx()
	c.Reset(id)
	sps := []*Span{c.Begin(nil, LayerRPC, OpRequest)}
	for i := 1; i < depth; i++ {
		sps = append(sps, c.Begin(sps[i-1], LayerEngine, OpRead))
	}
	for i := len(sps) - 1; i >= 0; i-- {
		c.End(sps[i])
	}
	c.Finish()
	rec.ReleaseCtx(c)
}

// TestRecordedCountsDroppedTraces: a flush whose ring slot a reader holds
// loses its copy but still counts as recorded.
func TestRecordedCountsDroppedTraces(t *testing.T) {
	rec := NewRecorder(WithCapacity(2, 1))
	rec.recent.slots[0].ver.Store(1) // a reader mid-copy of slot 0
	for i := 1; i <= 4; i++ {
		finishTrace(rec, uint64(i), 1)
	}
	if rec.Recorded() != 4 || rec.DroppedCount() != 2 {
		t.Fatalf("Recorded/DroppedCount = %d/%d, want 4/2", rec.Recorded(), rec.DroppedCount())
	}
	rec.recent.slots[0].ver.Store(0)
	if got := rec.Recent(); len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("ring = %+v, want trace 4 alone", got)
	}
}

// TestRingSlotReuseBoundsSpans: a short trace written over a longer one
// leaves the longer one's spans past N in the slot; every reader stops
// at N.
func TestRingSlotReuseBoundsSpans(t *testing.T) {
	rec := NewRecorder(WithCapacity(1, 1))
	finishTrace(rec, 1, 5)
	finishTrace(rec, 2, 2)
	got := rec.Recent()
	if len(got) != 1 || got[0].ID != 2 || got[0].N != 2 {
		t.Fatalf("ring = %d traces, first ID %d N %d; want trace 2 with 2 spans", len(got), got[0].ID, got[0].N)
	}
	jt := got[0].JSON()
	if len(jt.Spans) != 2 || jt.Spans[0].Parent != -1 || jt.Spans[1].Parent != int32(jt.Spans[0].ID) {
		t.Fatalf("JSON spans = %+v, want the root and its child only", jt.Spans)
	}
	var buf bytes.Buffer
	RenderTree(&buf, &jt)
	if n := strings.Count(buf.String(), "\n"); n != 4 {
		t.Fatalf("rendered %d lines, want header, 2 spans, summary:\n%s", n, buf.String())
	}
	line, err := appendJSONLine(nil, &got[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(line), `"layer"`); n != 2 {
		t.Fatalf("slow-log line carries %d spans, want 2: %s", n, line)
	}
}

func TestSlowClassificationAndLog(t *testing.T) {
	var buf bytes.Buffer
	logBuf := &syncWriter{w: &buf}
	rec := NewRecorder(
		WithCapacity(8, 8),
		WithSlowThreshold(time.Millisecond),
		WithSlowLog(logBuf),
	)

	// Fast trace: under threshold, recent only.
	c := rec.AcquireCtx()
	c.Reset(1)
	c.End(c.Begin(nil, LayerRPC, OpRequest))
	c.Finish()

	// Slow trace: synthesize a 5ms root via Add.
	c.Reset(2)
	c.Add(nil, LayerRPC, OpRequest, time.Now(), int64(5*time.Millisecond))
	c.Finish()
	rec.ReleaseCtx(c)
	rec.Close() // joins the drain goroutine: log is complete after this

	if got := rec.SlowCount(); got != 1 {
		t.Fatalf("SlowCount=%d, want 1", got)
	}
	slow := rec.Slow()
	if len(slow) != 1 || slow[0].ID != 2 {
		t.Fatalf("slow ring = %+v, want one trace with ID 2", slow)
	}
	line := logBuf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("slow log is not one line: %q", line)
	}
	if !strings.Contains(line, `"id":"0000000000000002"`) {
		t.Fatalf("slow log line missing trace id: %q", line)
	}
}

// syncWriter makes a bytes.Buffer safe to share between the drain
// goroutine and the test.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer // guarded by mu
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func (s *syncWriter) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.String()
}

func TestRecorderCloseIdempotent(t *testing.T) {
	rec := NewRecorder(WithSlowLog(&syncWriter{w: &bytes.Buffer{}}))
	rec.Close()
	rec.Close() // must not panic or deadlock
	// Recording after Close must not send on the closed channel.
	rec.SetSlowThreshold(time.Nanosecond)
	c := rec.AcquireCtx()
	c.Reset(9)
	c.Add(nil, LayerRPC, OpRequest, time.Now(), int64(time.Second))
	c.Finish()
	if len(rec.Slow()) != 1 {
		t.Fatal("slow ring should still accept traces after Close")
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	rec := NewRecorder(WithCapacity(16, 4), WithSlowThreshold(time.Nanosecond))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c := rec.AcquireCtx()
			defer rec.ReleaseCtx(c)
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Reset(seed<<32 | i)
				root := c.Begin(nil, LayerRPC, OpRequest)
				c.End(c.Begin(root, LayerEngine, OpRead))
				c.End(root)
				c.Finish()
			}
		}(uint64(w))
	}
	for i := 0; i < 50; i++ {
		for _, tr := range rec.Recent() {
			if tr.N < 1 || tr.N > MaxSpans {
				t.Errorf("torn trace: N=%d", tr.N)
			}
		}
		rec.Slow()
	}
	close(stop)
	wg.Wait()
}

func TestJSONRoundTrip(t *testing.T) {
	rec := NewRecorder(WithCapacity(2, 2))
	c := rec.AcquireCtx()
	c.Reset(0xdeadbeef)
	root := c.Begin(nil, LayerRPC, OpRequest)
	root.Cmd = 3
	disk := c.Begin(root, LayerDisk, OpDiskRead)
	disk.Replica = 1
	disk.Bytes = 512
	c.End(disk)
	c.Add(root, LayerDisk, OpReplicaCommit, time.Now(), DurPending)
	c.End(root)
	c.Finish()
	rec.ReleaseCtx(c)

	payload, err := EncodeTraces(rec.Recent())
	if err != nil {
		t.Fatalf("EncodeTraces: %v", err)
	}
	jts, err := DecodeTraces(payload)
	if err != nil {
		t.Fatalf("DecodeTraces: %v", err)
	}
	if len(jts) != 1 {
		t.Fatalf("decoded %d traces, want 1", len(jts))
	}
	jt := jts[0]
	if jt.ID != "00000000deadbeef" {
		t.Fatalf("trace id %q, want 00000000deadbeef", jt.ID)
	}
	if len(jt.Spans) != 3 {
		t.Fatalf("decoded %d spans, want 3", len(jt.Spans))
	}
	if jt.Spans[0].Parent != -1 || jt.Spans[0].Layer != "rpc" || jt.Spans[0].Op != "request" {
		t.Fatalf("root span decoded wrong: %+v", jt.Spans[0])
	}
	if jt.Spans[1].Replica != 1 || jt.Spans[1].Op != "disk-read" {
		t.Fatalf("disk span decoded wrong: %+v", jt.Spans[1])
	}
	if jt.Spans[2].Dur != -1 {
		t.Fatalf("pending span Dur = %d, want -1", jt.Spans[2].Dur)
	}
}

func TestDecodeTracesRejectsGarbage(t *testing.T) {
	if _, err := DecodeTraces([]byte("{not json")); err == nil {
		t.Fatal("DecodeTraces accepted garbage")
	}
}

func TestRenderTree(t *testing.T) {
	jt := &JSONTrace{
		ID:    "000000000000002a",
		Start: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC).UnixNano(),
		Spans: []JSONSpan{
			{ID: 0, Parent: -1, Layer: "rpc", Op: "request", Cmd: 2, Dur: 1_000_000, Replica: -1},
			{ID: 1, Parent: 0, Layer: "engine", Op: "read", Inode: 7, Dur: 800_000, Replica: -1},
			{ID: 2, Parent: 1, Layer: "cache", Op: "cache-lookup", CacheHit: "miss", Dur: 10_000, Replica: -1},
			{ID: 3, Parent: 1, Layer: "disk", Op: "disk-read", Replica: 0, Dur: 700_000},
			{ID: 4, Parent: 0, Layer: "disk", Op: "replica-commit", Replica: 1, Dur: -1},
		},
	}
	var buf bytes.Buffer
	RenderTree(&buf, jt)
	out := buf.String()
	for _, want := range []string{
		"trace 000000000000002a",
		"request cmd=2",
		"inode=7",
		"cache=miss",
		"replica=0",
		"pending",
		"self-time by layer:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// Self-time: engine = 800µs − 10µs − 700µs = 90µs.
	if !strings.Contains(out, "engine 90µs") {
		t.Errorf("engine self-time wrong:\n%s", out)
	}
	// rpc self = 1ms − 800µs (pending child excluded) = 200µs.
	if !strings.Contains(out, "rpc 200µs") {
		t.Errorf("rpc self-time wrong:\n%s", out)
	}
}

func TestEnumStringsTotal(t *testing.T) {
	for l := Layer(0); l < layerCount; l++ {
		if strings.Contains(l.String(), "?") {
			t.Errorf("layer %d has no name", l)
		}
	}
	for o := Op(0); o < opCount; o++ {
		if strings.Contains(o.String(), "?") {
			t.Errorf("op %d has no name", o)
		}
	}
	if Layer(250).String() != "layer?" || Op(250).String() != "op?" {
		t.Error("out-of-range enums must not panic")
	}
}

// TestSpanRecordingAllocFree proves the arena claim: a full
// begin/attribute/end/finish cycle allocates nothing. The CI workflow
// runs this under -race as well.
func TestSpanRecordingAllocFree(t *testing.T) {
	rec := NewRecorder(WithCapacity(8, 8))
	c := rec.AcquireCtx()
	defer rec.ReleaseCtx(c)
	allocs := testing.AllocsPerRun(200, func() {
		c.Reset(42)
		root := c.Begin(nil, LayerRPC, OpRequest)
		root.Cmd = 2
		eng := c.Begin(root, LayerEngine, OpRead)
		eng.Inode = 9
		look := c.Begin(eng, LayerCache, OpCacheLookup)
		look.CacheHit = CacheHit
		c.End(look)
		c.End(eng)
		c.End(root)
		c.Finish()
	})
	if allocs != 0 {
		t.Fatalf("span recording allocates %v per op, want 0", allocs)
	}
}

// TestCtxFinishedUntilReset: once a request's trace is published, spans
// opened behind it record nothing and a second Finish publishes nothing —
// until Reset arms the arena for the next request.
func TestCtxFinishedUntilReset(t *testing.T) {
	rec := NewRecorder(WithCapacity(4, 4))
	c := rec.AcquireCtx()
	defer rec.ReleaseCtx(c)

	c.Reset(1)
	c.End(c.Begin(nil, LayerRPC, OpRequest))
	c.Finish()
	if sp := c.Begin(nil, LayerEngine, OpRead); sp != nil {
		t.Fatal("Begin after Finish opened a span")
	}
	if sp := c.Add(nil, LayerDisk, OpDiskRead, time.Now(), 5); sp != nil {
		t.Fatal("Add after Finish recorded a span")
	}
	c.Finish()
	if got := rec.Recent(); len(got) != 1 || got[0].ID != 1 || got[0].N != 1 {
		t.Fatalf("recorder holds %d traces after a late span and a second Finish, want the one", len(got))
	}

	c.Reset(2)
	sp := c.Begin(nil, LayerRPC, OpRequest)
	if sp == nil {
		t.Fatal("Reset did not re-arm the arena")
	}
	c.End(sp)
	c.Finish()
	if got := rec.Recent(); len(got) != 2 {
		t.Fatalf("recorder holds %d traces, want 2", len(got))
	}
}
