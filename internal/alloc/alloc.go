// Package alloc implements the contiguous-extent allocator behind both the
// Bullet disk data area and the RAM file cache.
//
// The paper's server scans the inode table at startup to learn which parts
// of the disk are free and keeps that knowledge in an in-RAM free list
// (paper §3). Allocation is first fit; freeing coalesces with neighbours.
// External fragmentation — the price of contiguity the paper discusses in
// §3 — is observable through Stats, and Plan computes the compaction moves
// of the "every morning at 3 a.m." compactor.
//
// Units are deliberately abstract: the Bullet engine allocates disk blocks,
// the cache allocates bytes.
package alloc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Extent is a contiguous run of units [Start, Start+Count).
type Extent struct {
	Start int64
	Count int64
}

// End returns the first unit past the extent.
func (e Extent) End() int64 { return e.Start + e.Count }

// Errors returned by the allocator.
var (
	// ErrNoSpace means no free extent is large enough (the paper's answer:
	// compact, or buy a bigger disk).
	ErrNoSpace = errors.New("alloc: no contiguous extent large enough")
	// ErrBadFree means a Free did not correspond to allocated space.
	ErrBadFree = errors.New("alloc: freeing unallocated or overlapping space")
	// ErrBadExtent means an extent is malformed or out of range.
	ErrBadExtent = errors.New("alloc: extent out of range")
	// ErrBadArena means an allocator was configured with an unusable
	// arena size.
	ErrBadArena = errors.New("alloc: bad arena size")
)

// Allocator hands out contiguous extents from a fixed-size arena using
// first fit. The zero value is not usable; call New or NewFromUsed.
type Allocator struct {
	mu    sync.Mutex
	total int64    // immutable after construction
	free  []Extent // guarded by mu; sorted by Start, non-adjacent, non-overlapping
}

// New returns an allocator over an arena of total units, all free.
func New(total int64) (*Allocator, error) {
	if total <= 0 {
		return nil, fmt.Errorf("non-positive arena size %d: %w", total, ErrBadArena)
	}
	return &Allocator{total: total, free: []Extent{{Start: 0, Count: total}}}, nil
}

// NewFromUsed builds an allocator for an arena in which the given extents
// are already occupied — how the Bullet server reconstructs the disk free
// list from the inode table at startup. Used extents may arrive in any
// order but must be in range and mutually disjoint.
func NewFromUsed(total int64, used []Extent) (*Allocator, error) {
	if total <= 0 {
		return nil, fmt.Errorf("non-positive arena size %d: %w", total, ErrBadArena)
	}
	sorted := make([]Extent, len(used))
	copy(sorted, used)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	a := &Allocator{total: total}
	cursor := int64(0)
	for _, u := range sorted {
		if u.Count <= 0 || u.Start < 0 || u.End() > total {
			return nil, fmt.Errorf("used extent [%d,%d): %w", u.Start, u.End(), ErrBadExtent)
		}
		if u.Start < cursor {
			return nil, fmt.Errorf("used extents overlap at %d: %w", u.Start, ErrBadExtent)
		}
		if u.Start > cursor {
			a.free = append(a.free, Extent{Start: cursor, Count: u.Start - cursor})
		}
		cursor = u.End()
	}
	if cursor < total {
		a.free = append(a.free, Extent{Start: cursor, Count: total - cursor})
	}
	return a, nil
}

// Total returns the arena size.
func (a *Allocator) Total() int64 { return a.total }

// Alloc claims the first free extent of at least n units (first fit,
// paper §3) and returns its start. A full allocator returns ErrNoSpace
// bare: the cache meets it on every eviction-driven placement, and callers
// say what they were placing when they pass it on.
func (a *Allocator) Alloc(n int64) (int64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("non-positive allocation %d: %w", n, ErrBadExtent)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i := range a.free {
		if a.free[i].Count < n {
			continue
		}
		start := a.free[i].Start
		if a.free[i].Count == n {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i].Start += n
			a.free[i].Count -= n
		}
		return start, nil
	}
	return 0, ErrNoSpace
}

// Free returns [start, start+n) to the free pool, coalescing with adjacent
// free extents. Freeing space that is already free (or out of range) is an
// error: it would mean the inode table and free list disagree.
func (a *Allocator) Free(start, n int64) error {
	if n <= 0 || start < 0 || start+n > a.total {
		return fmt.Errorf("freeing [%d,%d): %w", start, start+n, ErrBadExtent)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Find insertion point: first free extent starting at or after start.
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].Start >= start })
	if i < len(a.free) && start+n > a.free[i].Start {
		return fmt.Errorf("[%d,%d) overlaps free [%d,%d): %w",
			start, start+n, a.free[i].Start, a.free[i].End(), ErrBadFree)
	}
	if i > 0 && a.free[i-1].End() > start {
		return fmt.Errorf("[%d,%d) overlaps free [%d,%d): %w",
			start, start+n, a.free[i-1].Start, a.free[i-1].End(), ErrBadFree)
	}
	// Coalesce with predecessor and/or successor.
	mergePrev := i > 0 && a.free[i-1].End() == start
	mergeNext := i < len(a.free) && a.free[i].Start == start+n
	switch {
	case mergePrev && mergeNext:
		a.free[i-1].Count += n + a.free[i].Count
		a.free = append(a.free[:i], a.free[i+1:]...)
	case mergePrev:
		a.free[i-1].Count += n
	case mergeNext:
		a.free[i].Start = start
		a.free[i].Count += n
	default:
		a.free = append(a.free, Extent{})
		copy(a.free[i+1:], a.free[i:])
		a.free[i] = Extent{Start: start, Count: n}
	}
	return nil
}

// Stats describes the allocator's fragmentation state.
type Stats struct {
	Total       int64 // arena size
	Free        int64 // total free units
	Used        int64 // total allocated units
	FreeExtents int   // number of holes
	LargestFree int64 // biggest single allocation that would succeed
}

// Fragmentation returns 1 - largest/free: 0 when all free space is one
// hole, approaching 1 when it is shattered. By convention it is 0 when
// nothing is free.
func (s Stats) Fragmentation() float64 {
	if s.Free == 0 {
		return 0
	}
	return 1 - float64(s.LargestFree)/float64(s.Free)
}

// Stats returns a snapshot of the fragmentation state.
func (a *Allocator) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Stats{Total: a.total, FreeExtents: len(a.free)}
	for _, e := range a.free {
		s.Free += e.Count
		if e.Count > s.LargestFree {
			s.LargestFree = e.Count
		}
	}
	s.Used = s.Total - s.Free
	return s
}

// FreeExtents returns a copy of the free list, sorted by start.
func (a *Allocator) FreeExtents() []Extent {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Extent, len(a.free))
	copy(out, a.free)
	return out
}

// Move is one step of a compaction plan: copy Count units from From to To.
// Moves are ordered so that executing them sequentially never overwrites
// data that has not moved yet (targets advance strictly left of sources).
type Move struct {
	From, To, Count int64
	Tag             any // caller's identifier for the extent (e.g. inode number)
}

// Used describes an allocated extent for compaction planning.
type Used struct {
	Extent
	Tag any
}

// Plan computes the compaction of the given used extents: sliding every
// extent as far toward the start of the arena as possible, preserving
// order. It returns the moves to execute; extents already in place yield no
// move. Plan does not mutate the allocator — call Apply after the caller
// has physically moved the data and updated its own references.
func Plan(used []Used) []Move {
	sorted := make([]Used, len(used))
	copy(sorted, used)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var moves []Move
	cursor := int64(0)
	for _, u := range sorted {
		if u.Start != cursor {
			moves = append(moves, Move{From: u.Start, To: cursor, Count: u.Count, Tag: u.Tag})
		}
		cursor += u.Count
	}
	return moves
}

// Reset rebuilds the free list from scratch given the now-current used
// extents; used after executing a compaction plan.
func (a *Allocator) Reset(used []Extent) error {
	fresh, err := NewFromUsed(a.total, used)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free = fresh.free
	return nil
}

// checkInvariants verifies the free list is sorted, in range, disjoint and
// non-adjacent. Exposed for tests via export_test.go.
func (a *Allocator) checkInvariants() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	prevEnd := int64(-1)
	for _, e := range a.free {
		if e.Count <= 0 || e.Start < 0 || e.End() > a.total {
			return fmt.Errorf("free extent [%d,%d) out of range", e.Start, e.End())
		}
		if e.Start <= prevEnd {
			return fmt.Errorf("free list not sorted/coalesced at %d", e.Start)
		}
		prevEnd = e.End()
	}
	return nil
}
