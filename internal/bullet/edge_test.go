package bullet

import (
	"bulletfs/internal/capability"
	"bytes"
	"errors"
	"testing"
)

func TestModifyOfDeletedFile(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("short lived"), 2)
	if err := w.srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := settle(w.srv.Modify(nil, nil, c, 0, []byte("x"), -1, 2)); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Modify(deleted) err = %v", err)
	}
	if _, err := settle(w.srv.Append(nil, nil, c, []byte("x"), 2)); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Append(deleted) err = %v", err)
	}
}

func TestAppendToEmptyFile(t *testing.T) {
	w := newWorld(t, 2, Options{})
	empty := mustCreate(t, w.srv, nil, 2)
	v2, err := settle(w.srv.Append(nil, nil, empty, []byte("first bytes"), 2))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if got := mustRead(t, w.srv, v2); !bytes.Equal(got, []byte("first bytes")) {
		t.Fatalf("appended = %q", got)
	}
}

func TestModifyToEmpty(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("contents"), 2)
	emptied, err := settle(w.srv.Modify(nil, nil, c, 0, nil, 0, 2))
	if err != nil {
		t.Fatalf("Modify(newSize=0): %v", err)
	}
	if got := mustRead(t, w.srv, emptied); len(got) != 0 {
		t.Fatalf("emptied = %q", got)
	}
	size, err := w.srv.Size(nil, nil, emptied)
	if err != nil || size != 0 {
		t.Fatalf("Size = %d, %v", size, err)
	}
}

func TestCreateExactlyCacheSized(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 64 << 10})
	data := bytes.Repeat([]byte{0x5C}, 64<<10)
	c, err := w.srv.Create(data, 2)
	if err != nil {
		t.Fatalf("Create(cache-sized): %v", err)
	}
	if got := mustRead(t, w.srv, c); !bytes.Equal(got, data) {
		t.Fatal("cache-sized file corrupted")
	}
	// One byte more is rejected.
	if _, err := w.srv.Create(append(data, 1), 2); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized err = %v", err)
	}
}

func TestReadRangeOnUncachedFile(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 8 << 10})
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 1024) // 4 KB
	c := mustCreate(t, w.srv, data, 2)
	// Evict it with a bigger file.
	mustCreate(t, w.srv, bytes.Repeat([]byte{9}, 6<<10), 2)
	got, err := readRange(w.srv, c, 100, 8)
	if err != nil {
		t.Fatalf("ReadRange(uncached): %v", err)
	}
	if !bytes.Equal(got, data[100:108]) {
		t.Fatalf("range = %v", got)
	}
}

func TestModifySpliceExactlyAtEnd(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("abc"), 2)
	// Splicing [3,6) with natural size grows the file (same as append).
	v2, err := settle(w.srv.Modify(nil, nil, c, 3, []byte("def"), -1, 2))
	if err != nil {
		t.Fatalf("Modify at end: %v", err)
	}
	if got := mustRead(t, w.srv, v2); !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("got %q", got)
	}
	// Splicing that exactly fills an explicit newSize.
	v3, err := settle(w.srv.Modify(nil, nil, c, 1, []byte("XY"), 3, 2))
	if err != nil {
		t.Fatalf("Modify exact fit: %v", err)
	}
	if got := mustRead(t, w.srv, v3); !bytes.Equal(got, []byte("aXY")) {
		t.Fatalf("got %q", got)
	}
}

func TestCapabilityCacheHitsAndInvalidation(t *testing.T) {
	w := newWorld(t, 2, Options{})
	c := mustCreate(t, w.srv, []byte("guarded"), 2)
	for i := 0; i < 5; i++ {
		mustRead(t, w.srv, c)
	}
	st := w.srv.Stats()
	// First read verifies and caches; the rest hit.
	if st.CapCacheHits < 4 {
		t.Fatalf("CapCacheHits = %d, want >= 4", st.CapCacheHits)
	}
	// A forged capability never enters the cache.
	forged := c
	forged.Check[0] ^= 1
	for i := 0; i < 3; i++ {
		if _, err := w.srv.Read(forged); !errors.Is(err, capability.ErrBadCheck) {
			t.Fatalf("forged read err = %v", err)
		}
	}
	// Restricted capability: cached too, but rights still enforced.
	readOnly, err := capability.Restrict(c, RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	mustRead(t, w.srv, readOnly)
	mustRead(t, w.srv, readOnly) // cached validation
	if err := w.srv.Delete(nil, nil, readOnly); !errors.Is(err, capability.ErrBadRights) {
		t.Fatalf("cached validation leaked rights: %v", err)
	}

	// Deletion drops the cached validations: a replay of the old
	// capability against a reused inode slot must fail the check.
	if err := w.srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	c2 := mustCreate(t, w.srv, []byte("new tenant"), 2)
	if c2.Object != c.Object {
		t.Skipf("inode %d not reused (got %d)", c.Object, c2.Object)
	}
	if _, err := w.srv.Read(c); !errors.Is(err, capability.ErrBadCheck) {
		t.Fatalf("stale capability replay err = %v, want ErrBadCheck", err)
	}
	if _, err := w.srv.Read(readOnly); !errors.Is(err, capability.ErrBadCheck) {
		t.Fatalf("stale restricted replay err = %v, want ErrBadCheck", err)
	}
}

func TestDeleteWhileUncached(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 4 << 10})
	c := mustCreate(t, w.srv, bytes.Repeat([]byte{7}, 3<<10), 2)
	mustCreate(t, w.srv, bytes.Repeat([]byte{8}, 3<<10), 2) // evicts c
	if err := w.srv.Delete(nil, nil, c); err != nil {
		t.Fatalf("Delete(uncached): %v", err)
	}
	if _, err := w.srv.Read(c); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("Read after delete err = %v", err)
	}
}

func TestModifyRejectsAbsurdNewSize(t *testing.T) {
	w := newWorld(t, 2, Options{CacheBytes: 64 << 10})
	c := mustCreate(t, w.srv, []byte("small"), 2)
	// A hostile client names a terabyte-scale size: the engine must
	// refuse before allocating anything.
	if _, err := settle(w.srv.Modify(nil, nil, c, 0, []byte("x"), 1<<40, 2)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("huge newSize err = %v, want ErrTooLarge", err)
	}
}

// TestCapabilityCacheIndexedByObject: the verified-capability cache is
// keyed by object first, so a delete drops every validation for its object
// in one step and leaves the others alone, and the 4 096-entry bound counts
// entries across all objects.
func TestCapabilityCacheIndexedByObject(t *testing.T) {
	w := newWorld(t, 2, Options{})
	capCount := func() (total, sum int) {
		w.srv.capMu.RLock()
		defer w.srv.capMu.RUnlock()
		for _, byCap := range w.srv.capCache {
			sum += len(byCap)
		}
		return w.srv.capCount, sum
	}
	var owners []capability.Capability
	for i := 0; i < 3; i++ {
		c := mustCreate(t, w.srv, []byte{byte(i)}, 2)
		ro, err := capability.Restrict(c, RightRead)
		if err != nil {
			t.Fatalf("Restrict: %v", err)
		}
		mustRead(t, w.srv, c)
		mustRead(t, w.srv, c) // a repeat is a hit, not a second entry
		mustRead(t, w.srv, ro)
		owners = append(owners, c)
	}
	if total, sum := capCount(); total != 6 || sum != 6 {
		t.Fatalf("cached validations = %d (sum %d), want 6", total, sum)
	}
	if err := w.srv.Delete(nil, nil, owners[1]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if total, sum := capCount(); total != 4 || sum != 4 {
		t.Fatalf("after delete: %d validations (sum %d), want 4", total, sum)
	}
	w.srv.capMu.RLock()
	_, kept := w.srv.capCache[owners[0].Object]
	_, gone := w.srv.capCache[owners[1].Object]
	w.srv.capMu.RUnlock()
	if !kept || gone {
		t.Fatalf("purge touched the wrong object: kept=%v gone=%v", kept, !gone)
	}

	// Overflow the bound with distinct restricted capabilities (255 rights
	// masks per file): the cache is dropped wholesale, never grows past it.
	for f := 0; f < 18; f++ {
		c := mustCreate(t, w.srv, []byte{byte(f)}, 1)
		for mask := 1; mask < 256; mask++ {
			rc, err := capability.Restrict(c, capability.Rights(mask))
			if err != nil {
				t.Fatalf("Restrict: %v", err)
			}
			_, _ = w.srv.Size(nil, nil, rc) // masks without the read right fail, after being cached
			if total, sum := capCount(); total != sum || total > maxCapCache {
				t.Fatalf("capCount = %d, entries = %d, bound %d", total, sum, maxCapCache)
			}
		}
	}
	if total, _ := capCount(); total >= 18*255 {
		t.Fatalf("cache never evicted: %d entries", total)
	}
}
