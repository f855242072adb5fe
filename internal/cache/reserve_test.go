package cache

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
)

// place puts a size-byte file for inode into c through either placement
// entry point and reports what was evicted. A reservation is filled,
// published and released at once, so afterwards both leave the same state.
func place(t *testing.T, c *Cache, reserve bool, inode uint32, size int) (uint16, []Evicted) {
	t.Helper()
	fill := bytes.Repeat([]byte{byte(inode)}, size)
	if !reserve {
		idx, evicted, err := c.Insert(inode, fill)
		if err != nil {
			t.Fatalf("Insert(%d): %v", inode, err)
		}
		return idx, evicted
	}
	v, evicted, err := reserveView(c, inode, int64(size))
	if err != nil {
		t.Fatalf("Reserve(%d): %v", inode, err)
	}
	copy(v.Bytes(), fill)
	v.Publish(inode)
	idx := v.Slot()
	v.Release()
	return idx, evicted
}

// reserveView is Reserve into a fresh View, with no tail past size.
func reserveView(c *Cache, inode uint32, size int64) (*View, []Evicted, error) {
	v := new(View)
	evicted, err := c.Reserve(v, inode, size, size)
	if err != nil {
		return nil, evicted, err
	}
	return v, evicted, nil
}

func evictedInodes(ev []Evicted) []uint32 {
	var out []uint32
	for _, e := range ev {
		out = append(out, e.Inode)
	}
	return out
}

// TestReservePlacesLikeInsert runs the placement scenarios of the Insert
// tests through both entry points: same victims, same order, same stats.
func TestReservePlacesLikeInsert(t *testing.T) {
	for _, reserve := range []bool{false, true} {
		name := map[bool]string{false: "Insert", true: "Reserve"}[reserve]
		t.Run(name+"/LRUOrder", func(t *testing.T) {
			c := mustNew(t, 300, 8)
			i1, _ := place(t, c, reserve, 1, 100)
			place(t, c, reserve, 2, 100)
			place(t, c, reserve, 3, 100)
			if _, err := c.Get(i1, 1); err != nil { // 2 becomes the LRU
				t.Fatalf("Get: %v", err)
			}
			_, ev := place(t, c, reserve, 4, 100)
			if got := evictedInodes(ev); !slices.Equal(got, []uint32{2}) {
				t.Fatalf("evicted %v, want [2]", got)
			}
		})
		t.Run(name+"/RepeatsUntilEnoughSpace", func(t *testing.T) {
			c := mustNew(t, 300, 8)
			for i := uint32(1); i <= 3; i++ {
				place(t, c, reserve, i, 100)
			}
			_, ev := place(t, c, reserve, 4, 250)
			if got := evictedInodes(ev); !slices.Equal(got, []uint32{1, 2, 3}) {
				t.Fatalf("evicted %v, want [1 2 3]", got)
			}
		})
		t.Run(name+"/RnodeExhaustion", func(t *testing.T) {
			c := mustNew(t, 1024, 2)
			place(t, c, reserve, 1, 1)
			place(t, c, reserve, 2, 1)
			_, ev := place(t, c, reserve, 3, 1)
			if got := evictedInodes(ev); !slices.Equal(got, []uint32{1}) {
				t.Fatalf("evicted %v, want [1]", got)
			}
		})
		t.Run(name+"/Shattered", func(t *testing.T) {
			// Holes at [20,40) and [60,80): 40 bytes free, largest hole 20.
			c := mustNew(t, 100, 8)
			var idx [5]uint16
			for i := range idx {
				idx[i], _ = place(t, c, reserve, uint32(i+1), 20)
			}
			for _, i := range []int{1, 3} {
				if err := c.Remove(idx[i], uint32(i+1)); err != nil {
					t.Fatalf("Remove: %v", err)
				}
			}
			slot, _ := place(t, c, reserve, 9, 40)
			got, err := c.Get(slot, 9)
			if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{9}, 40)) {
				t.Fatalf("Get after shattered placement = %v, %v", got, err)
			}
		})
		t.Run(name+"/TooLarge", func(t *testing.T) {
			c := mustNew(t, 100, 8)
			var err error
			if reserve {
				_, _, err = reserveView(c, 1, 101)
			} else {
				_, _, err = c.Insert(1, make([]byte, 101))
			}
			if !errors.Is(err, ErrTooLarge) {
				t.Fatalf("err = %v, want ErrTooLarge", err)
			}
		})
	}
}

// A reserved slot is unfilled and unpublished: no lookup resolves it, not
// even one that guesses its number, until the holder says the bytes are in.
func TestReservedSlotInvisibleUntilPublished(t *testing.T) {
	c := mustNew(t, 1024, 8)
	v, evicted, err := reserveView(c, 7, 16)
	if err != nil || len(evicted) != 0 {
		t.Fatalf("Reserve = %v, evicted %v", err, evicted)
	}
	if v.Len() != 16 || v.Slot() == 0 {
		t.Fatalf("reserved view: len %d slot %d", v.Len(), v.Slot())
	}
	if _, err := c.GetView(v.Slot(), 7); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("GetView of an unfilled slot = %v, want ErrBadSlot", err)
	}
	if _, err := c.Pin(v.Slot(), 7); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Pin of an unfilled slot = %v, want ErrBadSlot", err)
	}
	if _, err := c.Get(v.Slot(), 7); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("Get of an unfilled slot = %v, want ErrBadSlot", err)
	}
	st := c.Stats()
	if st.Insertions != 1 || st.Files != 1 || st.UsedBytes != 16 || st.PinnedViews != 1 || st.Hits != 0 {
		t.Fatalf("stats while reserved = %+v", st)
	}

	copy(v.Bytes(), "filled in place!")
	v.Publish(7)
	got, err := c.GetView(v.Slot(), 7)
	if err != nil {
		t.Fatalf("GetView after Publish: %v", err)
	}
	if string(got.Bytes()) != "filled in place!" {
		t.Fatalf("published bytes = %q", got.Bytes())
	}
	got.Release()
	v.Release()
	st = c.Stats()
	if st.Insertions != 1 || st.Files != 1 || st.PinnedViews != 0 || st.Hits != 1 {
		t.Fatalf("stats after publish = %+v (the reservation counts as one insertion, its pin as no hit)", st)
	}
}

// The reservation's pin is an ordinary pin: eviction passes over the slot
// however old it is, and compaction refuses to slide the arena under it.
func TestReservedSlotSkippedByLRUAndBlocksCompaction(t *testing.T) {
	c := mustNew(t, 300, 8)
	v, _, err := reserveView(c, 1, 100) // oldest entry in the cache
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	mustInsert(t, c, 2, make([]byte, 100))
	mustInsert(t, c, 3, make([]byte, 100))
	_, evicted, err := c.Insert(4, make([]byte, 100))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if got := evictedInodes(evicted); !slices.Equal(got, []uint32{2}) {
		t.Fatalf("evicted %v, want [2]: the reserved slot must be skipped", got)
	}
	if err := c.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if st := c.Stats(); st.Compactions != 0 || st.CompactionsSkipped != 1 {
		t.Fatalf("compaction ran under a reservation: %+v", st)
	}
	// With everything else gone and the reservation immovable, a request
	// for the whole arena is refused rather than served at its expense.
	if _, _, err := reserveView(c, 5, 300); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Reserve of the whole arena = %v, want ErrTooLarge", err)
	}

	v.Publish(1)
	v.Release()
	if _, evicted, err = c.Insert(6, make([]byte, 300)); err != nil {
		t.Fatalf("Insert after release: %v", err)
	}
	if len(evicted) != 1 || evicted[0].Inode != 1 {
		t.Fatalf("evicted %v, want the released reservation (inode 1)", evictedInodes(evicted))
	}
}

// Giving a reservation back: Remove dooms the unpublished slot, the
// holder's Release reclaims it, and the extent is free again.
func TestAbandonedReservationReturnsExtent(t *testing.T) {
	c := mustNew(t, 100, 4)
	v, _, err := reserveView(c, 1, 100)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := c.Remove(v.Slot(), 1); err != nil {
		t.Fatalf("Remove of an unpublished slot: %v", err)
	}
	if st := c.Stats(); st.Files != 0 || st.UsedBytes != 100 {
		t.Fatalf("doomed but still pinned: %+v", st)
	}
	v.Publish(1) // a late publish must not resurrect a doomed slot
	if _, err := c.GetView(v.Slot(), 1); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("GetView of a doomed reservation = %v, want ErrBadSlot", err)
	}
	v.Release()
	if st := c.Stats(); st.Files != 0 || st.UsedBytes != 0 || st.PinnedViews != 0 || st.Evictions != 0 {
		t.Fatalf("after Remove + Release: %+v", st)
	}
	_, evicted, err := c.Insert(2, make([]byte, 100))
	if err != nil || len(evicted) != 0 {
		t.Fatalf("Insert into the returned extent = %v, evicted %v", err, evicted)
	}
	if st := c.Stats(); st.Insertions != 2 {
		t.Fatalf("Insertions = %d, want 2", st.Insertions)
	}
}

// TestConcurrentReserveFillPublish fills reservations with no lock held
// while other goroutines look the same slots up, insert (evicting), remove
// and compact. A reader that gets a view must see only fully written
// bytes. Meant for -race — which does not see the arena's bytes (they are
// mapped memory it does not shadow), so every view read here is checked
// byte for byte against what was written.
func TestConcurrentReserveFillPublish(t *testing.T) {
	c := mustNew(t, 64<<10, 16)
	const workers, rounds, size = 4, 200, 4 << 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) { // faulting reader: reserve, fill, publish, re-read
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				inode := uint32(w*rounds + i + 1)
				v, _, err := reserveView(c, inode, size)
				if err != nil {
					continue // arena pinned solid by the other workers
				}
				slot := v.Slot()
				b := v.Bytes()
				for j := range b {
					b[j] = byte(inode)
				}
				// Nobody may see the slot before Publish, even by number.
				if peek, err := c.GetView(slot, inode); err == nil {
					peek.Release()
					t.Errorf("unpublished slot %d resolved", slot)
				}
				v.Publish(inode)
				got, err := c.GetView(slot, inode)
				if err != nil {
					t.Errorf("own pinned slot did not resolve: %v", err)
				} else {
					for _, x := range got.Bytes() {
						if x != byte(inode) {
							t.Errorf("slot %d holds foreign bytes", slot)
							break
						}
					}
					got.Release()
				}
				if i%5 == 0 {
					_ = c.Remove(slot, inode)
				}
				v.Release()
			}
		}(w)
		go func(w int) { // evicting inserts and compaction alongside
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				inode := uint32(1<<20 + w*rounds + i)
				want := bytes.Repeat([]byte{byte(inode) | 1}, size/2)
				idx, _, err := c.Insert(inode, want)
				if err == nil {
					if got, verr := c.GetView(idx, inode); verr == nil {
						if !bytes.Equal(got.Bytes(), want) {
							t.Errorf("inserted slot %d reads back foreign bytes", idx)
						}
						got.Release()
					}
					if i%3 == 0 {
						_ = c.Remove(idx, inode)
					}
				}
				if i%7 == 0 {
					_ = c.Compact()
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.PinnedViews != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
}

// A reservation's extent may run past the file (a create rounds it up to
// whole disk blocks): Bytes is the file, Extent the whole extent with the
// tail zeroed even where an earlier file left its bytes, and readers of
// the published slot see the file alone. The arena accounts for the
// whole extent until the slot is gone.
func TestReserveSpanZeroesTail(t *testing.T) {
	c := mustNew(t, 1024, 4)
	mustInsert(t, c, 1, bytes.Repeat([]byte{0xee}, 1024))
	if err := c.Remove(1, 1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	var v View
	if _, err := c.Reserve(&v, 0, 700, 1024); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if v.Len() != 700 || len(v.Extent()) != 1024 {
		t.Fatalf("Bytes %d, Extent %d; want 700, 1024", v.Len(), len(v.Extent()))
	}
	if !bytes.Equal(v.Extent()[700:], make([]byte, 324)) {
		t.Fatal("the tail past the file holds an earlier file's bytes")
	}
	copy(v.Bytes(), bytes.Repeat([]byte{0x11}, 700))
	v.Publish(9)
	got, err := c.GetView(v.Slot(), 9)
	if err != nil {
		t.Fatalf("GetView after Publish(9): %v", err)
	}
	if got.Len() != 700 || len(got.Extent()) != 700 {
		t.Fatalf("a reader sees %d bytes (extent %d), want the 700-byte file", got.Len(), len(got.Extent()))
	}
	got.Release()
	if st := c.Stats(); st.UsedBytes != 1024 || st.Files != 1 {
		t.Fatalf("stats with one rounded slot: %+v", st)
	}
	if err := c.Remove(v.Slot(), 9); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	v.Release()
	if st := c.Stats(); st.UsedBytes != 0 || st.PinnedViews != 0 {
		t.Fatalf("stats after the slot is gone: %+v", st)
	}
}
