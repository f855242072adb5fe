package cache

import (
	"bytes"
	"errors"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestArenaOutsideGoHeap: the arena is the server's own memory, mapped
// beside the Go heap, so building a 64 MiB cache and filling half of it
// leaves the heap about where it was. A heap-allocated arena would grow
// it by 64 MiB, and the collector would let as much garbage again build
// up before its next cycle.
func TestArenaOutsideGoHeap(t *testing.T) {
	file := bytes.Repeat([]byte{0xa7}, 1<<20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := New(64<<20, 1024)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var last uint16
	for i := 0; i < 32; i++ {
		if last, _, err = c.Insert(uint32(i+1), file); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("heap grew by %d bytes across a 64 MiB cache holding 32 MiB, want < 1 MiB", grew)
	}
	if got, err := c.Get(last, 32); err != nil || !bytes.Equal(got, file) {
		t.Fatalf("the last file does not read back from the arena (%v)", err)
	}
	runtime.KeepAlive(c)
}

// TestViewOutlivesLastCacheReference: a View holds its Cache, so a pin
// keeps the arena mapped after every other reference is gone; once the
// pin is released the Cache's finalizer unmaps the arena.
func TestViewOutlivesLastCacheReference(t *testing.T) {
	want := bytes.Repeat([]byte("outlived "), 4000)
	v, arena := func() (*View, []byte) {
		c := mustNew(t, 1<<20, 8)
		idx, _, err := c.Insert(1, want)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		v, err := c.GetView(idx, 1)
		if err != nil {
			t.Fatalf("GetView: %v", err)
		}
		return v, c.buf // mapped memory: this slice does not keep c alive
	}()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	if !bytes.Equal(v.Bytes(), want) {
		t.Fatal("pinned bytes changed once the view was the last reference to the cache")
	}
	v.Release()

	// madvise fails with ENOMEM on a range that is not mapped: that is
	// how the test sees the finalizer run (and had it run early, reading
	// the view above would have faulted).
	for i := 0; ; i++ {
		runtime.GC()
		err := syscall.Madvise(arena, syscall.MADV_NORMAL)
		if errors.Is(err, syscall.ENOMEM) {
			return
		}
		if err != nil {
			t.Fatalf("madvise on the arena: %v", err)
		}
		if i == 200 {
			t.Fatal("arena still mapped 200 collections after its last view was released")
		}
		time.Sleep(time.Millisecond) // the finalizer runs on its own goroutine
	}
}
