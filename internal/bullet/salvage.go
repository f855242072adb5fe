package bullet

import (
	"bytes"
	"fmt"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
)

// This file is the engine's self-healing surface: per-object scrubbing
// (compare every replica's copy of a file against its CRC32C and rewrite
// divergent extents), online replica recovery, and the health report the
// SALVAGE RPC serves. The background pacing lives one layer up, in
// internal/scrub; everything here is a single synchronous step.

// ErrBadReplica means a replica index was out of range for the set.
var ErrBadReplica = fmt.Errorf("bullet: no such replica")

// AuthorizeAdmin reports whether c is a valid capability for a live file
// carrying the admin right — the admission check for SALVAGE's mutating
// selectors (trigger scrub, trigger recovery). Reading the health report
// needs only AuthorizeRead: like stats and traces, it is read-only.
func (s *Server) AuthorizeAdmin(c capability.Capability) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, _, err := s.verify(c, capability.RightAdmin)
	return err
}

// ScrubResult reports what scrubbing one object found and did.
type ScrubResult struct {
	Object       uint32
	Bytes        int64 // bytes read from disk across all replicas
	Checked      int   // replica copies compared
	Repaired     int   // replica extents rewritten to the verified copy
	Backfilled   bool  // checksum recorded for the first time
	Unrepairable bool  // no replica held a copy matching the checksum
	Skipped      bool  // object vanished before the scrub reached it
}

// ScrubObject compares every live replica's copy of one file against the
// inode's CRC32C and rewrites divergent extents from the first verifying
// copy. For files that predate checksums it first establishes one by
// majority vote across the replicas. The metadata lock is held shared for
// the duration, which keeps delete and compaction (exclusive holders) from
// moving the extent mid-compare; the scrubber's rate limiter keeps these
// shared sections short and spaced.
func (s *Server) ScrubObject(obj uint32) ScrubResult {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := ScrubResult{Object: obj}
	ino, err := s.table.Get(obj)
	if err != nil || !ino.InUse() {
		res.Skipped = true
		return res
	}

	bs := s.desc.BlockSize
	extLen := ino.Blocks(bs) * int64(bs)
	off := s.desc.DataOffset(int64(ino.FirstBlock))

	// This file's own write-through, if still in flight, would read as
	// divergence: wait it out (safe under the shared lock; see awaitCommit).
	s.awaitCommit(obj)

	copies := make([][]byte, s.replicas.N())
	for i := range copies {
		if !s.replicas.Alive(i) {
			continue
		}
		buf := make([]byte, extLen)
		if s.replicas.Device(i).ReadAt(buf, off) == nil {
			copies[i] = buf
			res.Bytes += extLen
			res.Checked++
		}
	}

	// Pick the reference copy: the first one matching the checksum, or —
	// for pre-checksum files — the majority copy, which then defines the
	// checksum from here on.
	ref := -1
	if ino.HasSum {
		for i, buf := range copies {
			if buf != nil && layout.Checksum(buf[:ino.Size]) == ino.Sum {
				ref = i
				break
			}
		}
		if ref < 0 {
			res.Unrepairable = true
			s.m.scrubUnfixable.Inc()
			return res
		}
	} else {
		ref = majorityCopy(copies)
		if ref < 0 {
			res.Skipped = true // every replica dead or unreadable
			return res
		}
		if s.table.SetSum(obj, layout.Checksum(copies[ref][:ino.Size])) == nil {
			res.Backfilled = true
			s.m.sumBackfills.Inc()
		}
	}

	// Rewrite every copy that differs from the reference, including ones
	// whose direct read failed (the write may still land; if not, Repair
	// demotes the replica through the ordinary error path).
	for i := range copies {
		if i == ref || !s.replicas.Alive(i) {
			continue
		}
		if copies[i] != nil && bytes.Equal(copies[i], copies[ref]) {
			continue
		}
		if s.replicas.Repair(i, copies[ref], off) == nil {
			res.Repaired++
			s.m.scrubRepairs.Inc()
		}
	}
	return res
}

// majorityCopy returns the index of the most common byte-identical extent
// among the non-nil copies (ties break toward the lowest replica index),
// or -1 if every copy is nil.
func majorityCopy(copies [][]byte) int {
	best, bestCount := -1, 0
	for i, a := range copies {
		if a == nil {
			continue
		}
		count := 0
		for _, b := range copies {
			if b != nil && bytes.Equal(a, b) {
				count++
			}
		}
		if count > bestCount {
			best, bestCount = i, count
		}
	}
	return best
}

// FlushSums persists any checksum entries recorded since the last flush.
// The scrubber calls it at the end of each pass so lazily backfilled
// checksums reach the disk without waiting for the next Sync.
func (s *Server) FlushSums() error {
	_, err := s.table.FlushSums(s.replicas)
	return err
}

// StartRecover launches an online catch-up copy that brings a dead or
// stale replica back into the set without stalling the engine: reads and
// creates proceed while the copy runs (disk.ReplicaSet.Recover mirrors
// new writes to the recovering replica and converges via a dirty-extent
// log). Returns disk.ErrRecovering if a recovery is already running.
func (s *Server) StartRecover(replica int) error {
	if replica < 0 || replica >= s.replicas.N() {
		return fmt.Errorf("replica %d of %d: %w", replica, s.replicas.N(), ErrBadReplica)
	}
	s.recMu.Lock()
	if s.lastRecover != nil && s.lastRecover.Running {
		s.recMu.Unlock()
		return disk.ErrRecovering
	}
	rep := &RecoverReport{Replica: replica, Running: true}
	s.lastRecover = rep
	s.recMu.Unlock()

	s.bg.Add(1)
	go func() {
		defer s.bg.Done() // accounted: Close waits the engine's bg group
		err := s.replicas.Recover(replica)
		s.recMu.Lock()
		rep.Running = false
		if err != nil {
			rep.Error = err.Error()
		}
		s.recMu.Unlock()
	}()
	return nil
}

// HealthReport is the engine's self-diagnosis, served by the SALVAGE RPC
// and `bulletctl health`.
type HealthReport struct {
	LiveFiles     int                  `json:"live_files"`
	LayoutVersion int                  `json:"layout_version"`
	DirtySums     int                  `json:"dirty_checksum_blocks"`
	Recovering    int                  `json:"recovering_replica"` // -1 when idle
	Promotions    int64                `json:"promotions"`
	Recoveries    int64                `json:"recoveries"`
	Replicas      []disk.ReplicaHealth `json:"replicas"`
	LastRecover   *RecoverReport       `json:"last_recover,omitempty"`
}

// Health assembles the engine's health report. It takes no engine lock
// beyond what the accessors take themselves; the report is a statistical
// snapshot, not a consistent cut.
func (s *Server) Health() HealthReport {
	h := HealthReport{
		LiveFiles:     s.Live(),
		LayoutVersion: s.table.Desc().Version,
		DirtySums:     s.table.DirtySums(),
		Recovering:    s.replicas.Recovering(),
		Promotions:    s.replicas.Promotions(),
		Recoveries:    s.replicas.Recoveries(),
		Replicas:      s.replicas.Health(),
	}
	s.recMu.Lock()
	if s.lastRecover != nil {
		cp := *s.lastRecover
		h.LastRecover = &cp
	}
	s.recMu.Unlock()
	return h
}
