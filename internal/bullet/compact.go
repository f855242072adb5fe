package bullet

import (
	"fmt"

	"bulletfs/internal/alloc"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
)

// CompactDisk slides every file toward the start of the data area, merging
// all holes into one — the paper's "compaction every morning at 3 am when
// the system is lightly loaded" (§3). It is also invoked automatically by
// Create when first fit fails although enough total space is free.
//
// For each move the file is read whole from the main disk, written to its
// new extent on every replica, and only then is the inode updated and
// written through — so a crash mid-compaction leaves either the old or the
// new inode, each pointing at intact data (the source extent is not reused
// until the free list is rebuilt at the end).
//
// The metadata lock is held exclusively throughout: reads with a cache hit
// are unaffected (their copy-out happens outside the lock), while cache
// misses queue until the extents stop moving.
func (s *Server) CompactDisk() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactDiskLocked()
}

func (s *Server) compactDiskLocked() error {
	// No create's write-through may still head for a moving extent (mu
	// keeps new ones out; a delete's remainder writes only an inode block).
	s.awaitCommits()
	bs := int64(s.desc.BlockSize)
	var used []alloc.Used
	s.table.ForEachUsed(func(n uint32, ino layout.Inode) {
		used = append(used, alloc.Used{
			Extent: alloc.Extent{Start: int64(ino.FirstBlock), Count: ino.Blocks(s.desc.BlockSize)},
			Tag:    n,
		})
	})
	moves := alloc.Plan(used)
	for _, m := range moves {
		n := m.Tag.(uint32)
		if _, err := s.table.Get(n); err != nil {
			return fmt.Errorf("bullet: compaction lost inode %d: %w", n, err)
		}
		buf := make([]byte, m.Count*bs)
		if err := s.replicas.ReadAt(buf, s.desc.DataOffset(m.From)); err != nil {
			return fmt.Errorf("bullet: compaction read inode %d: %w", n, err)
		}
		// Data first, to all replicas, synchronously.
		if werr := s.replicas.WriteAt(buf, s.desc.DataOffset(m.To)); werr != nil {
			return fmt.Errorf("bullet: compaction write inode %d: %w", n, werr)
		}
		// Then the metadata: point the inode at the new extent.
		if err := s.retarget(n, uint32(m.To)); err != nil {
			return err
		}
		s.m.compactionBytes.Add(m.Count * bs)
	}

	var after []alloc.Extent
	s.table.ForEachUsed(func(_ uint32, ino layout.Inode) {
		after = append(after, alloc.Extent{Start: int64(ino.FirstBlock), Count: ino.Blocks(s.desc.BlockSize)})
	})
	if err := s.dalloc.Reset(after); err != nil {
		return fmt.Errorf("bullet: rebuilding free list after compaction: %w", err)
	}
	s.m.compactions.Inc()
	return nil
}

// retarget rewrites inode n to point at a new first block, preserving the
// random number, size and cache index, and writes it through to all disks.
func (s *Server) retarget(n, firstBlock uint32) error {
	if err := s.table.Retarget(n, firstBlock); err != nil {
		return fmt.Errorf("bullet: retargeting inode %d: %w", n, err)
	}
	later, err := s.replicas.ApplyDeferred(nil, nil, s.replicas.N(), func(i int, dev disk.Device) error {
		return s.writeInode(i, dev, n)
	}, nil)
	if later != nil {
		later()
	}
	if err != nil {
		return fmt.Errorf("bullet: persisting retarget of inode %d: %w", n, err)
	}
	return nil
}

// CompactCache defragments the RAM cache arena (paper §3: "the
// fragmentation in memory can be alleviated by compacting part or all of
// the RAM cache from time to time"). The exclusive metadata lock keeps new
// reads from pinning views mid-compaction; if views are already pinned
// (readers mid-copy-out), the cache skips the compaction rather than
// sliding bytes out from under them. No wire command reaches it; a
// program embedding the engine calls it from time to time, as the paper
// suggests. A non-nil error is cache.ErrCorrupt.
func (s *Server) CompactCache() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Compact()
}
