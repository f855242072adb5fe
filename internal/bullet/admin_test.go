package bullet

import (
	"bytes"
	"errors"
	"testing"

	"bulletfs/internal/capability"
)

func TestObjectsListsLiveFiles(t *testing.T) {
	w := newWorld(t, 2, Options{})
	if got := w.srv.Objects(); len(got) != 0 {
		t.Fatalf("fresh server objects = %v", got)
	}
	c1 := mustCreate(t, w.srv, []byte("a"), 2)
	c2 := mustCreate(t, w.srv, []byte("b"), 2)
	objs := w.srv.Objects()
	if len(objs) != 2 {
		t.Fatalf("objects = %v", objs)
	}
	seen := map[uint32]bool{}
	for _, o := range objs {
		seen[o] = true
	}
	if !seen[c1.Object] || !seen[c2.Object] {
		t.Fatalf("objects %v missing %d or %d", objs, c1.Object, c2.Object)
	}
	if err := w.srv.Delete(nil, nil, c1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if objs := w.srv.Objects(); len(objs) != 1 || objs[0] != c2.Object {
		t.Fatalf("objects after delete = %v", objs)
	}
}

func TestSweepExcept(t *testing.T) {
	w := newWorld(t, 2, Options{})
	keepCap := mustCreate(t, w.srv, []byte("keep me"), 2)
	var doomed []capability.Capability
	for i := 0; i < 3; i++ {
		doomed = append(doomed, mustCreate(t, w.srv, []byte("orphan"), 2))
	}
	removed, err := w.srv.SweepExcept(map[uint32]bool{keepCap.Object: true})
	if err != nil {
		t.Fatalf("SweepExcept: %v", err)
	}
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	if got := mustRead(t, w.srv, keepCap); !bytes.Equal(got, []byte("keep me")) {
		t.Fatal("kept file damaged")
	}
	for _, c := range doomed {
		if _, err := w.srv.Read(c); !errors.Is(err, ErrNoSuchFile) {
			t.Fatalf("swept file still readable: %v", err)
		}
	}
	// Disk space actually came back.
	if st := w.srv.DiskStats(); st.Used != 1 {
		t.Fatalf("disk used = %d blocks, want 1", st.Used)
	}
	// Sweep persists: a restart agrees.
	srv2, err := New(w.set, Options{Port: w.srv.Port(), CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if srv2.Live() != 1 {
		t.Fatalf("Live after restart = %d", srv2.Live())
	}
}

func TestSweepExceptEmptyKeepClearsEverything(t *testing.T) {
	w := newWorld(t, 2, Options{})
	for i := 0; i < 5; i++ {
		mustCreate(t, w.srv, []byte{byte(i)}, 2)
	}
	removed, err := w.srv.SweepExcept(nil)
	if err != nil || removed != 5 {
		t.Fatalf("SweepExcept = %d, %v", removed, err)
	}
	if w.srv.Live() != 0 {
		t.Fatalf("Live = %d", w.srv.Live())
	}
}

func TestCacheStatsAndCompactCache(t *testing.T) {
	w := newWorld(t, 2, Options{})
	mustCreate(t, w.srv, make([]byte, 1000), 2)
	st := w.srv.CacheStats()
	if st.Files != 1 || st.UsedBytes != 1024 { // the slot is rounded up to whole 512-byte blocks
		t.Fatalf("cache stats = %+v", st)
	}
	w.srv.CompactCache()
	if st := w.srv.CacheStats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d", st.Compactions)
	}
}

func TestEngineClose(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("x"), 0) // background write pending
	_ = c
	if err := w.srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Disks are closed: further writes fail cleanly.
	if _, err := w.srv.Create([]byte("y"), 1); err == nil {
		t.Fatal("Create after Close succeeded")
	}
}

func TestClampUint32(t *testing.T) {
	cases := []struct {
		in   int64
		want uint32
	}{
		{-5, 0}, {0, 0}, {7, 7}, {1 << 31, 1 << 31}, {1 << 40, 0xFFFFFFFF},
	}
	for _, c := range cases {
		if got := clampUint32(c.in); got != c.want {
			t.Errorf("clampUint32(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}
