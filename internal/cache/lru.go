package cache

// The LRU index. A slot's age stamp (slotState.age) is the one record of
// when it was last used; hits refresh it under the shared lock with a plain
// atomic store and never touch the index. The index is a binary min-heap
// of (age, slot) entries that lets eviction find the oldest slot without
// reading every rnode. It is guarded by Cache.mu held exclusively and
// keeps three rules:
//
//   - at most one entry per slot (Cache.queued says which slots have one);
//   - every used, undoomed slot has an entry;
//   - a live slot's entry key is never above the slot's age. Keys are set
//     from the age under the exclusive lock, and every later store into a
//     live slot is a tick drawn after that, so ages only move past keys.
//
// A key may therefore be stale (the slot was hit since) and an entry may
// name a slot that has since been freed, doomed or handed to another file.
// lruLocked repairs those lazily, at the top of the heap only.

// lruEntry is one heap entry: a slot and an age no later than its own.
type lruEntry struct {
	age  uint64
	slot uint16
}

// before orders entries by age, ties to the lower slot.
func (a lruEntry) before(b lruEntry) bool {
	return a.age < b.age || (a.age == b.age && a.slot < b.slot)
}

// lruHeap is a binary min-heap of entries under before.
type lruHeap []lruEntry

func (h *lruHeap) push(e lruEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			return
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *lruHeap) pop() lruEntry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

// down sifts entry i toward the leaves until no child comes before it.
func (h lruHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// queueLocked gives slot idx, just placed with the given age, an index
// entry unless it still has one from an earlier tenant; that entry's key
// is an older age, so it is merely stale.
func (c *Cache) queueLocked(idx uint16, age uint64) {
	if c.queued[idx-1] {
		return
	}
	c.queued[idx-1] = true
	c.lru.push(lruEntry{age: age, slot: idx})
}

// lruLocked returns the slot of the least recently used evictable file, or
// 0 if nothing can be evicted. Pinned entries have live readers copying
// out of the arena and doomed entries are already on their way out, so
// neither is a candidate. The victim's entry stays at the top of the
// index; once the caller has evicted it, the next call drops it.
//
// The answer is the one a scan of every rnode gives — minimum age, ties
// broken by lowest slot — because every candidate has an entry and no
// candidate's age is below its key: an entry whose key equals its slot's
// age, at the top of the heap, is at or before every other candidate.
// Until the top is such an entry, lruLocked drops the entry of a free or
// doomed slot, re-keys a stale one to its slot's age and sifts it down,
// and sets a pinned one aside, to be pushed back once the victim is found.
func (c *Cache) lruLocked() uint16 {
	victim := uint16(0)
	for len(c.lru) > 0 {
		top := c.lru[0]
		i := top.slot - 1
		if rn := &c.rnodes[i]; !rn.used || rn.doomed {
			c.lru.pop()
			c.queued[i] = false
			continue
		}
		if age := c.slots[i].age.Load(); age != top.age {
			c.lru[0].age = age
			c.lru.down(0)
			continue
		}
		if c.slots[i].pins.Load() > 0 {
			c.aside = append(c.aside, c.lru.pop())
			continue
		}
		victim = top.slot
		break
	}
	for _, e := range c.aside {
		c.lru.push(e)
	}
	c.aside = c.aside[:0]
	return victim
}
