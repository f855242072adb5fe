package cache

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// scanLRU is the linear scan the LRU index replaced, kept verbatim as the
// reference it must agree with: the least recently used slot that is used,
// unpinned and not doomed, ties broken by lowest slot. Caller holds c.mu.
func scanLRU(c *Cache) uint16 {
	best := uint16(0)
	var bestAge uint64
	for i := range c.rnodes {
		rn := &c.rnodes[i]
		if !rn.used || c.slots[i].pins.Load() > 0 || rn.doomed {
			continue
		}
		if age := c.slots[i].age.Load(); best == 0 || age < bestAge {
			best = uint16(i + 1)
			bestAge = age
		}
	}
	return best
}

// scanOrder lists every eviction candidate in the order repeated scans
// would evict them: by age, then by slot. Caller holds c.mu.
func scanOrder(c *Cache) []uint16 {
	var out []uint16
	for i := range c.rnodes {
		rn := &c.rnodes[i]
		if rn.used && !rn.doomed && c.slots[i].pins.Load() == 0 {
			out = append(out, uint16(i+1))
		}
	}
	slices.SortFunc(out, func(a, b uint16) int {
		if x, y := c.slots[a-1].age.Load(), c.slots[b-1].age.Load(); x != y {
			return cmp.Compare(x, y)
		}
		return cmp.Compare(a, b)
	})
	return out
}

// checkIndex asserts, on a quiesced cache, that the index picks the scan's
// victim and keeps its rules: bounded by the rnode count, one entry per
// queued slot and none for the rest, every used undoomed slot queued, and
// no live slot's key above its age.
func checkIndex(c *Cache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, got := scanLRU(c), c.lruLocked(); got != want {
		return fmt.Errorf("index chose slot %d, scan chose %d", got, want)
	}
	if len(c.lru) > len(c.rnodes) {
		return fmt.Errorf("index holds %d entries for %d rnodes", len(c.lru), len(c.rnodes))
	}
	entries := make([]int, len(c.rnodes))
	for _, e := range c.lru {
		i := e.slot - 1
		entries[i]++
		if rn := &c.rnodes[i]; rn.used && !rn.doomed && e.age > c.slots[i].age.Load() {
			return fmt.Errorf("slot %d keyed %d above its age %d", e.slot, e.age, c.slots[i].age.Load())
		}
	}
	for i, rn := range c.rnodes {
		want := 0
		if c.queued[i] {
			want = 1
		}
		if entries[i] != want {
			return fmt.Errorf("slot %d: %d entries, queued=%v", i+1, entries[i], c.queued[i])
		}
		if rn.used && !rn.doomed && !c.queued[i] {
			return fmt.Errorf("live slot %d not queued", i+1)
		}
	}
	if len(c.aside) != 0 {
		return fmt.Errorf("%d entries left aside", len(c.aside))
	}
	return nil
}

// lruDriver runs seeded random cache operations against a small table and
// checks the index after every one.
type lruDriver struct {
	c        *Cache
	rng      *rand.Rand
	live     map[uint32]uint16 // published inode -> slot
	held     []*View           // pins the driver holds
	reserved []reservation     // reservations neither published nor abandoned
	next     uint32

	byRnode, bySpace int // placements that evicted for an rnode, for space
}

type reservation struct {
	v     *View
	inode uint32
}

const (
	driverRnodes = 16
	driverArena  = 2048
	driverMaxPin = 4
)

// pickLive returns a random published inode and its slot, or ok=false.
func (d *lruDriver) pickLive() (inode uint32, slot uint16, ok bool) {
	if len(d.live) == 0 {
		return 0, 0, false
	}
	inodes := make([]uint32, 0, len(d.live))
	for in := range d.live {
		inodes = append(inodes, in)
	}
	slices.Sort(inodes) // map order is random; the seed must decide
	inode = inodes[d.rng.Intn(len(inodes))]
	return inode, d.live[inode], true
}

func (d *lruDriver) size() int64 {
	if d.rng.Intn(3) == 0 {
		return 0
	}
	return 1 + d.rng.Int63n(driverArena/6)
}

// place runs one Insert or Reserve and checks that what it evicted is a
// prefix of the scan's order taken just before: each eviction inside one
// placement is the scan's next choice.
func (d *lruDriver) place(reserve bool) error {
	d.c.mu.Lock()
	order := scanOrder(d.c)
	full := len(d.c.freeSlot) == 0
	d.c.mu.Unlock()

	inode := d.next
	d.next++
	size := d.size()
	var (
		slot    uint16
		evicted []Evicted
		err     error
	)
	if reserve {
		var v *View
		v, evicted, err = reserveView(d.c, inode, size)
		if err == nil {
			slot = v.Slot()
			d.reserved = append(d.reserved, reservation{v: v, inode: inode})
		}
	} else {
		slot, evicted, err = d.c.Insert(inode, make([]byte, size))
	}
	if err != nil && !errors.Is(err, ErrTooLarge) && !errors.Is(err, ErrBadSlot) {
		return fmt.Errorf("place %d bytes: %v", size, err)
	}
	if len(evicted) > len(order) {
		return fmt.Errorf("evicted %v, only %d candidates", evicted, len(order))
	}
	for k, ev := range evicted {
		if ev.Slot != order[k] {
			return fmt.Errorf("eviction %d took slot %d, scan order %v", k, ev.Slot, order)
		}
		delete(d.live, ev.Inode)
	}
	if full && len(evicted) > 0 {
		d.byRnode++
	}
	if n := len(evicted); n > 1 || (n == 1 && !full) {
		d.bySpace++
	}
	if err == nil && !reserve {
		d.live[inode] = slot
	}
	return nil
}

// step runs one random operation and names it.
func (d *lruDriver) step() (string, error) {
	pins := len(d.held) + len(d.reserved)
	switch op := d.rng.Intn(10); {
	case op < 3:
		return "insert", d.place(false)
	case op < 4 && pins < driverMaxPin:
		return "reserve", d.place(true)
	case op < 5 && len(d.reserved) > 0:
		k := d.rng.Intn(len(d.reserved))
		r := d.reserved[k]
		d.reserved = slices.Delete(d.reserved, k, k+1)
		if d.rng.Intn(3) == 0 { // abandon
			if err := d.c.Remove(r.v.Slot(), r.inode); err != nil {
				return "abandon", err
			}
			r.v.Release()
			return "abandon", nil
		}
		r.v.Publish(r.inode)
		d.live[r.inode] = r.v.Slot()
		d.held = append(d.held, r.v)
		return "publish", nil
	case op < 7:
		inode, slot, ok := d.pickLive()
		if !ok {
			return "hit (empty)", nil
		}
		if d.rng.Intn(3) == 0 {
			_, err := d.c.Get(slot, inode)
			return "get", err
		}
		op, lookup := "getview", d.c.GetView
		if d.rng.Intn(2) == 0 {
			op, lookup = "pin", d.c.Pin
		}
		v, err := lookup(slot, inode)
		if err != nil {
			return op, err
		}
		if pins >= driverMaxPin || d.rng.Intn(2) == 0 {
			v.Release()
			return op + "+release", nil
		}
		d.held = append(d.held, v)
		return op, nil
	case op < 8 && len(d.held) > 0:
		k := d.rng.Intn(len(d.held))
		d.held[k].Release()
		d.held = slices.Delete(d.held, k, k+1)
		return "release", nil
	case op < 9:
		inode, slot, ok := d.pickLive()
		if !ok {
			return "remove (empty)", nil
		}
		delete(d.live, inode)
		return "remove", d.c.Remove(slot, inode)
	}
	return "compact", d.c.Compact()
}

// TestLRUIndexMatchesScan drives seeded random operations on a 16-rnode
// cache with a tight arena, so both a full rnode table and a full arena
// force evictions, and checks after every operation that the heap picks
// exactly the victim the old linear scan picks.
func TestLRUIndexMatchesScan(t *testing.T) {
	const seeds, steps = 500, 200
	var byRnode, bySpace int
	for seed := int64(1); seed <= seeds; seed++ {
		c, err := New(driverArena, driverRnodes)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		d := &lruDriver{c: c, rng: rand.New(rand.NewSource(seed)), live: map[uint32]uint16{}, next: 1}
		for i := 0; i < steps; i++ {
			op, err := d.step()
			if err == nil {
				err = checkIndex(c)
			}
			if err != nil {
				t.Fatalf("seed %d, step %d (%s): %v", seed, i, op, err)
			}
		}
		for _, v := range d.held {
			v.Release()
		}
		for _, r := range d.reserved {
			r.v.Release()
		}
		if err := checkIndex(c); err != nil {
			t.Fatalf("seed %d, after releasing every pin: %v", seed, err)
		}
		byRnode += d.byRnode
		bySpace += d.bySpace
	}
	if byRnode < seeds || bySpace < seeds {
		t.Fatalf("placements that evicted: %d for an rnode, %d for space; the driver must exercise both", byRnode, bySpace)
	}
}

// A Release that drops a doomed slot's last pin reclaims the slot only
// once it has the lock. In between, the slot is unpinned but doomed, and
// an eviction holding the lock must still pass it over.
func TestLRUSkipsDoomedSlotAwaitingReclaim(t *testing.T) {
	c := mustNew(t, 1024, 4)
	old := mustInsert(t, c, 1, make([]byte, 16))
	v, err := c.Pin(old, 1)
	if err != nil {
		t.Fatalf("Pin: %v", err)
	}
	mustInsert(t, c, 2, make([]byte, 16))
	if err := c.Remove(old, 1); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	pins := &c.slots[old-1].pins
	pins.Add(-1) // the Release's decrement, before it takes the lock
	c.mu.Lock()
	got, want := c.lruLocked(), scanLRU(c)
	c.mu.Unlock()
	pins.Add(1)
	v.Release()
	if got != want || got == old {
		t.Fatalf("index chose slot %d, scan %d; the doomed slot is %d", got, want, old)
	}
}

// TestConcurrentEvictWhileHitting races hits (shared lock, age stores
// outside the index) against reservations that evict past a full rnode
// table, with removals and compactions alongside. Meant for -race.
func TestConcurrentEvictWhileHitting(t *testing.T) {
	const rnodes, size = 32, 256
	const hitters, reservers, rounds = 2, 2, 1500
	c := mustNew(t, rnodes*size, rnodes)
	var names [rnodes]atomic.Uint32 // slot-1 -> inode last published there

	var wg sync.WaitGroup
	for w := 0; w < hitters; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4*rounds; i++ {
				slot := uint16(1 + rng.Intn(rnodes))
				inode := names[slot-1].Load()
				if inode == 0 {
					continue
				}
				v, err := c.GetView(slot, inode)
				if err != nil {
					continue // evicted, removed or reused since
				}
				if b := v.Bytes(); b[0] != byte(inode) || b[len(b)-1] != byte(inode) {
					t.Errorf("slot %d: inode %d reads foreign bytes", slot, inode)
				}
				v.Release()
			}
		}(int64(w + 1))
	}
	for w := 0; w < reservers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				inode := uint32(w*rounds + i + 1)
				v, _, err := reserveView(c, inode, size)
				if err != nil {
					continue // every slot pinned at this instant
				}
				b := v.Bytes()
				for j := range b {
					b[j] = byte(inode)
				}
				v.Publish(inode)
				names[v.Slot()-1].Store(inode)
				v.Release()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < rounds; i++ {
			slot := uint16(1 + rng.Intn(rnodes))
			if inode := names[slot-1].Load(); inode != 0 {
				_ = c.Remove(slot, inode) // may be gone already
			}
			if i%16 == 0 {
				if err := c.Compact(); err != nil {
					t.Errorf("Compact: %v", err)
				}
			}
		}
	}()
	wg.Wait()

	if st := c.Stats(); st.PinnedViews != 0 {
		t.Fatalf("pins leaked: %+v", st)
	}
	c.mu.Lock()
	used := 0
	for _, rn := range c.rnodes {
		if rn.used {
			used++
		}
	}
	free, heap := len(c.freeSlot), len(c.lru)
	c.mu.Unlock()
	if used+free != rnodes {
		t.Fatalf("%d used + %d free slots, want %d", used, free, rnodes)
	}
	if heap > rnodes {
		t.Fatalf("index holds %d entries for %d rnodes", heap, rnodes)
	}
	if err := checkIndex(c); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPlaceEvictFullTable places files into a full 1 024-rnode table,
// so every Reserve evicts the least recently used file, while a hit on a
// recently placed file each round keeps ages moving under the index.
func BenchmarkPlaceEvictFullTable(b *testing.B) {
	const rnodes, size, back = 1024, 1024, 8
	c, err := New(2*rnodes*size, rnodes)
	if err != nil {
		b.Fatal(err)
	}
	var slots [rnodes]uint16 // inode % rnodes -> slot
	place := func(inode uint32) {
		v, _, err := reserveView(c, inode, size)
		if err != nil {
			b.Fatal(err)
		}
		v.Publish(inode)
		slots[inode%rnodes] = v.Slot()
		v.Release()
	}
	for inode := uint32(1); inode <= rnodes; inode++ {
		place(inode)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inode := uint32(rnodes + i + 1)
		recent := inode - back
		v, err := c.GetView(slots[recent%rnodes], recent)
		if err != nil {
			b.Fatal(err)
		}
		v.Release()
		place(inode)
	}
}
