package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"bulletfs/internal/capability"
)

func TestSliceBucketing(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for _, c := range []struct{ ms, want int }{{0, 0}, {249, 0}, {250, 1}, {999, 3}, {1000, 4}} {
		if got := sliceOf(t0, at(c.ms), 250*time.Millisecond); got != c.want {
			t.Errorf("sliceOf(%d ms) = %d, want %d", c.ms, got, c.want)
		}
	}
	if !isBullet(0) || isBullet(1) || !isBullet(16) {
		t.Error("even slices carry Bullet traffic, odd slices the null twin")
	}

	l := newSliceLog(4)
	l.record(0, 0, 100, 10*time.Microsecond) // Bullet op inside slice 0
	l.record(0, 1, 100, 10*time.Microsecond) // straddles the boundary: started in 0, counted in neither
	l.record(1, 1, 50, 5*time.Microsecond)   // null op: counted, no latency kept
	l.record(2, 2, 100, time.Hour)           // latency is capped, not wrapped
	l.record(3, 4, 100, time.Microsecond)    // ends after the last slice
	l.record(4, 4, 100, time.Microsecond)    // starts after the last slice: ignored
	if want := []int64{1, 1, 1, 0}; !reflect.DeepEqual(l.ops, want) {
		t.Errorf("ops = %v, want %v", l.ops, want)
	}
	if want := []int64{2, 1, 1, 1}; !reflect.DeepEqual(l.started, want) {
		t.Errorf("started = %v, want %v", l.started, want)
	}
	if want := []int64{100, 50, 100, 0}; !reflect.DeepEqual(l.bytes, want) {
		t.Errorf("bytes = %v, want %v", l.bytes, want)
	}
	if want := []int64{10000, 5000, int64(time.Hour), 0}; !reflect.DeepEqual(l.busy, want) {
		t.Errorf("busy = %v, want %v", l.busy, want)
	}
	if want := []uint32{0, 2}; !reflect.DeepEqual(l.latSlice, want) {
		t.Errorf("latSlice = %v, want %v", l.latSlice, want)
	}
	if l.lat[1] != math.MaxInt32 {
		t.Errorf("an hour-long op recorded as %d ns", l.lat[1])
	}
	sum := sumSlices([]*sliceLog{l, l}, func(l *sliceLog) []int64 { return l.ops })
	if want := []int64{2, 2, 2, 0}; !reflect.DeepEqual(sum, want) {
		t.Errorf("sumSlices = %v, want %v", sum, want)
	}
	// Two workers that each complete 1 op in 10 us deliver 200 000 ops/s
	// between them, whatever the slice length.
	r := rates([]*sliceLog{l, l}, func(l *sliceLog) []int64 { return l.ops })
	if math.Abs(r[0]-200000) > 1e-6 || math.Abs(r[1]-400000) > 1e-6 || r[3] != 0 {
		t.Errorf("rates = %v, want [200000 400000 _ 0]", r)
	}
}

func TestNullSliceReplaysItsBulletSlice(t *testing.T) {
	var r replayer
	if _, ok := r.next(1); ok {
		t.Error("nothing to replay before any Bullet slice completed an op")
	}
	a, b, c := op{slot: 1, size: 10}, op{slot: 2, size: 20}, op{slot: 3, size: 30}
	r.completed(a) // Bullet slice 2
	r.completed(b)
	var got []op
	for i := 0; i < 5; i++ { // null slice 3 cycles through them
		o, _ := r.next(3)
		got = append(got, o)
	}
	if want := []op{a, b, a, b, a}; !reflect.DeepEqual(got, want) {
		t.Errorf("null slice 3 ran %v, want %v", got, want)
	}
	r.completed(c) // Bullet slice 4
	if o, _ := r.next(5); o != c {
		t.Errorf("null slice 5 starts with %v, want the op of Bullet slice 4", o)
	}
	// Bullet slice 6 completes nothing: slice 7 keeps replaying slice 4.
	if o, ok := r.next(7); !ok || o != c {
		t.Errorf("null slice 7 ran %v, %v, want the last non-empty list", o, ok)
	}
}

func TestPairRatioMedian(t *testing.T) {
	// Two warm-up slices, then three pairs. The machine runs at full speed
	// in pair 0, half speed in pair 1 and a quarter in pair 2: raw ops/s
	// swing 4x, the ratio does not move.
	ops := []float64{999, 999, 600, 1000, 300, 500, 150, 250}
	if r, want := pairRatios(ops, 2, 3, nil), []float64{0.6, 0.6, 0.6}; !reflect.DeepEqual(r, want) {
		t.Errorf("ops ratios = %v, want %v", r, want)
	}
	// Server CPU per op: Bullet 20 ns, null 10 ns in every pair.
	cpu := []int64{1, 1, 12000, 10000, 6000, 5000, 3000, 2500}
	started := []int64{999, 999, 600, 1000, 300, 500, 150, 250}
	if c := pairRatios(perOp(cpu, started), 2, 3, nil); len(c) != 3 || median(c) != 2 {
		t.Errorf("cpu-per-op ratios = %v, want three 2s", c)
	}
	// A pair in which one side completed nothing is dropped, not divided by.
	ops[5] = 0
	if r := pairRatios(ops, 2, 3, nil); len(r) != 2 {
		t.Errorf("pairs with an empty slice must be dropped, got %v", r)
	}
	// So is a pair the caller does not keep (steal time fell into it).
	if r := pairRatios(ops, 2, 3, []bool{false, true, true}); len(r) != 1 {
		t.Errorf("only pair 2 is both kept and complete, got %v", r)
	}
	if m := median([]float64{5, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if q := quantile([]float64{10, 20, 30, 40, 50}, 0.95); math.Abs(q-48) > 1e-9 {
		t.Errorf("p95 = %v, want 48", q)
	}
}

// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ==
// [3.5, 13.5, 31.0], statistics.median == 13.5.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := quartileSpread(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	// A P-FACTOR-2 create: the service span runs 100..200; the two
	// replica writes run in parallel over 120..160 and 130..170, the
	// inode write follows at 175..185, and a write-through that started
	// inside the span ends after the reply.
	svc := interval{100, 200}
	children := []interval{{120, 160}, {130, 170}, {175, 185}, {195, 230}}
	if got := covered(svc, children); got != 50+10+5 {
		t.Errorf("covered = %d, want 65 (the union, clipped to the parent)", got)
	}
	if got := selfTime(svc, children); got != 35 {
		t.Errorf("selfTime = %d, want 35", got)
	}
	if got := selfTime(svc, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}

	spans := []span{
		{ID: 1, Req: 1, Name: "client", Start: 0, End: 300},
		{ID: 2, Parent: 1, Req: 1, Name: "rpc", Start: 10, End: 290},
		// The handler returns after the client already has the reply.
		{ID: 3, Parent: 2, Req: 1, Name: "bulletsvc", Start: 100, End: 295},
		{ID: 4, Parent: 3, Req: 1, Name: "disk.write", Start: 120, End: 160},
		{ID: 5, Parent: 3, Req: 1, Name: "disk.write", Start: 130, End: 170},
		{ID: 6, Parent: 3, Req: 1, Name: "rpc.emit", Start: 250, End: 280},
		{ID: 7, Parent: 3, Req: 1, Name: "disk.write", Start: 285, End: 320},
		{ID: 8, Name: "disk.write", Start: 400, End: 410}, // background
	}
	perReq, background := breakdown(spans)
	lt := perReq[1]
	want := layerTimes{total: 300, client: 20, rpc: 90 + 30, bullet: 190 - 55 - 30, disk: 50 + 5}
	if lt != want {
		t.Errorf("breakdown = %+v, want %+v", lt, want)
	}
	if lt.client+lt.rpc+lt.bullet+lt.disk != lt.total {
		t.Errorf("layer self times %+v do not add up to the client span", lt)
	}
	if background != 10+30 {
		t.Errorf("background = %d, want 40 (the late write plus the tail past the reply)", background)
	}
	// A service span recorded against the wrong request still yields four
	// self times that add up, which is why orphans is what gets checked.
	spans[2].Start, spans[2].End = 500, 600
	perReq, _ = breakdown(spans)
	if lt := perReq[1]; lt.orphans != 1+4 || lt.client+lt.rpc+lt.bullet+lt.disk != lt.total {
		t.Errorf("mis-parented service span: %+v, want 5 orphans (the span and the 4 children it no longer holds) and the parts still adding up", lt)
	}
}

func TestNullFrameRoundTrip(t *testing.T) {
	cli, srv := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serveNull(srv)
	}()
	c := newNullConn(cli)
	for _, f := range []struct{ req, rep int }{{0, 0}, {0, 4096}, {4096, 0}, {3, 1 << 20}, {1 << 20, 7}} {
		if err := c.roundTrip(make([]byte, f.req), f.rep); err != nil {
			t.Fatalf("null(%d, %d): %v", f.req, f.rep, err)
		}
	}
	// A frame past the limit makes the server hang up instead of allocating.
	if err := c.roundTrip(nil, nullMaxPayload+1); err == nil {
		t.Error("oversized reply request was served")
	}
	c.close()
	<-done
}

func TestSameSeedSameOps(t *testing.T) {
	for _, sp := range specs {
		sizes := sp.population(42)
		for w := 0; w < workers; w++ {
			a, b := sp.gen(42, sizes, w, workers), sp.gen(42, sizes, w, workers)
			other := sp.gen(43, sp.population(43), w, workers)
			differs := false
			for i := 0; i < 5000; i++ {
				oa, ob := a(), b()
				if oa != ob {
					t.Fatalf("%s worker %d op %d: %+v vs %+v from the same seed", sp.name, w, i, oa, ob)
				}
				if oa != other() {
					differs = true
				}
			}
			if !differs && sp.name != "create_delete" { // whose ops are the same for every seed; only contents differ
				t.Errorf("%s worker %d: seeds 42 and 43 give the same 5000 ops", sp.name, w)
			}
		}
		if !reflect.DeepEqual(sizes, sp.population(42)) {
			t.Errorf("%s: population sizes differ between two calls with one seed", sp.name)
		}
	}
}

func TestWorkersOwnDisjointSlots(t *testing.T) {
	for _, name := range []string{"cold_large_read", "paper_mix"} {
		sp := specByName(name)
		sizes := sp.population(7)
		owner := make(map[int]int)
		for w := 0; w < workers; w++ {
			g := sp.gen(7, sizes, w, workers)
			for i := 0; i < 5000; i++ {
				o := g()
				if prev, seen := owner[o.slot]; seen && prev != w {
					t.Fatalf("%s: slot %d used by workers %d and %d", name, o.slot, prev, w)
				}
				owner[o.slot] = w
			}
		}
	}
}

// fakeBullet is an in-memory file server keyed by capability.
type fakeBullet struct {
	next  uint32
	files map[capability.Capability][]byte
}

var errNoSuchFile = errors.New("fake: no such file")

func (f *fakeBullet) Create(port capability.Port, data []byte, _ int) (capability.Capability, error) {
	f.next++
	c := capability.Capability{Port: port, Object: f.next}
	f.files[c] = append([]byte(nil), data...)
	return c, nil
}

func (f *fakeBullet) Read(c capability.Capability) ([]byte, error) {
	d, ok := f.files[c]
	if !ok {
		return nil, errNoSuchFile
	}
	return d, nil
}

func (f *fakeBullet) ReadRange(c capability.Capability, off, n int64) ([]byte, error) {
	d, ok := f.files[c]
	if !ok || off > int64(len(d)) {
		return nil, errNoSuchFile
	}
	return d[off:min(off+n, int64(len(d)))], nil
}

func (f *fakeBullet) Delete(c capability.Capability) error {
	if _, ok := f.files[c]; !ok {
		return errNoSuchFile
	}
	delete(f.files, c)
	return nil
}

func TestPaperMixKeepsPopulationConstant(t *testing.T) {
	const seed = 5
	sp := specByName("paper_mix")
	fake := &fakeBullet{files: make(map[capability.Capability][]byte)}
	sizes := sp.population(seed)
	st := &fileState{caps: make([]capability.Capability, len(sizes)), crcs: make([]uint32, len(sizes))}
	buf := &bulletExec{}
	for slot, size := range sizes {
		data := buf.content(fileKey(seed, slot, 0), size)
		st.caps[slot], _ = fake.Create(bulletPort, data, 2)
		st.crcs[slot] = crc32.Checksum(data, castagnoli)
	}
	kinds := make(map[opKind]int)
	for w := 0; w < workers; w++ {
		x := &bulletExec{cl: fake, st: st, seed: seed, pfactor: sp.pfactor}
		g := sp.gen(seed, sizes, w, workers)
		for i := 0; i < 10000; i++ {
			o := g()
			kinds[o.kind]++
			if _, err := x.do(o); err != nil {
				t.Fatalf("worker %d op %d %+v: %v", w, i, o, err)
			}
		}
	}
	if len(fake.files) != mixSlots {
		t.Errorf("%d live files after 20000 ops, want %d", len(fake.files), mixSlots)
	}
	if kinds[opRead] == 0 || kinds[opReadRange] == 0 || kinds[opReplace] == 0 {
		t.Errorf("the mix lost an op kind: %v", kinds)
	}
	for slot, c := range st.caps {
		if d, ok := fake.files[c]; !ok || crc32.Checksum(d, castagnoli) != st.crcs[slot] {
			t.Fatalf("slot %d: live file missing or its CRC stale", slot)
		}
	}
}

func TestVerificationCatchesCorruption(t *testing.T) {
	const seed = 9
	fake := &fakeBullet{files: make(map[capability.Capability][]byte)}
	st := &fileState{caps: make([]capability.Capability, 1), crcs: make([]uint32, 1)}
	x := &bulletExec{cl: fake, st: st, seed: seed}
	data := append([]byte(nil), x.content(fileKey(seed, 0, 0), 4096)...)
	st.caps[0], _ = fake.Create(bulletPort, data, 2)
	st.crcs[0] = crc32.Checksum(data, castagnoli)
	read := op{kind: opRead, slot: 0, size: 4096}
	if _, err := x.do(read); err != nil {
		t.Fatalf("clean read: %v", err)
	}
	fake.files[st.caps[0]][4095] ^= 1 // inside the tail stamp: every read sees it
	if _, err := x.do(read); err == nil {
		t.Error("a flipped last byte passed the stamp check")
	}
	fake.files[st.caps[0]][4095] ^= 1
	fake.files[st.caps[0]][2000] ^= 1 // mid-file: only the 1-in-16 full CRC sees it
	caught := 0
	for i := 0; i < 32; i++ {
		if _, err := x.do(read); err != nil {
			caught++
		}
	}
	if caught != 2 {
		t.Errorf("the full CRC check caught a mid-file flip %d times in 32 reads, want 2", caught)
	}
	fake.files[st.caps[0]] = data[:4000]
	if _, err := x.do(read); err == nil {
		t.Error("a short read passed")
	}
}

func TestContentIsPositionDependent(t *testing.T) {
	key := fileKey(1, 2, 3)
	whole := make([]byte, 1000)
	fill(whole, key, 0)
	for _, r := range []struct{ off, n int }{{0, 1000}, {1, 7}, {3, 40}, {8, 8}, {993, 7}, {500, 1}} {
		part := make([]byte, r.n)
		fill(part, key, int64(r.off))
		if !bytes.Equal(part, whole[r.off:r.off+r.n]) {
			t.Errorf("fill at offset %d length %d differs from the same bytes of the whole file", r.off, r.n)
		}
		if !checkEnds(part, key, int64(r.off)) {
			t.Errorf("checkEnds rejects the true bytes at offset %d length %d", r.off, r.n)
		}
		crc, _ := rangeCRC(nil, key, int64(r.off), int64(r.n))
		if crc != crc32.Checksum(part, castagnoli) {
			t.Errorf("rangeCRC at offset %d length %d disagrees with the bytes", r.off, r.n)
		}
	}
	if fileKey(1, 2, 3) == fileKey(1, 2, 4) || fileKey(1, 2, 3) == fileKey(2, 2, 3) || fileKey(1, 2, 3) == fileKey(1, 3, 3) {
		t.Error("fileKey ignores one of seed, slot, version")
	}
}

// BENCHMARK.json at the repository root must name exactly the workloads
// and metrics this package reports, with the same units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json above this package: %v", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds is %d in BENCHMARK.json, --seconds defaults to %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bf.Workloads), len(specs))
	}
	for i, w := range bf.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, specs[i].name)
		}
	}
	var got []metricDef
	for _, m := range bf.EndToEnd {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
		// A metric that cannot repeat within a tenth gets a better
		// estimator or leaves the gated set; its bound is not widened.
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, want %v", got, endToEnd)
	}
	got = nil
	for _, m := range bf.PerLayer {
		got = append(got, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, want %v", got, perLayer)
	}
}
