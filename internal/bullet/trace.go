package bullet

import (
	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// This file is the engine's file-operation surface: one exported method
// per operation (READ, in lease.go, is the other), each taking a span
// context and a parent span first. Both may be nil, so traced and
// untraced callers share one body. Each method opens one engine-layer op
// span and threads tc down through the cache and disk layers, which hang
// their own spans (cache-lookup, cache-insert, disk-read, replica-commit)
// under it. The operations that write a file return the write-through the
// P-FACTOR did not wait for as later: the caller replies, then runs it.

// annotate records an engine span's attributes; a nil span (untraced)
// is a no-op.
func annotate(sp *trace.Span, inode uint32, bytes int64, pfactor int, err error) {
	if sp == nil {
		return
	}
	sp.Inode = inode
	sp.Bytes = bytes
	sp.PFactor = int8(pfactor)
	if err != nil {
		sp.Status = 1
	}
}

// CreateDeferred implements BULLET.CREATE (paper §2.2): it stores data as
// a new immutable file and returns its owner capability. The paranoia
// factor selects when the call returns relative to the write-through
// replication: 0 returns once the file is in the RAM cache, k >= 1 returns
// after k disks hold both the file and its inode. The write-through to
// every disk always happens (paper §3); P-FACTOR only moves the reply.
//
// When data is exactly the Bytes of a placement this server handed out
// (Place) that nobody has adopted or abandoned, the create adopts it and
// the bytes stay where they are; otherwise the file is placed here and
// data copied in. Either way its checksum is computed before the
// metadata lock, which is held only to claim the extent and the inode and
// to publish the cache slot. The write-through itself runs outside it,
// straight from that slot — the caller writes its P-FACTOR quorum, main
// replica first — so concurrent creates overlap their disk time and
// readers are never blocked behind a commit. later, when non-nil, is the
// rest of the write-through: call it once the reply is out, on any
// goroutine. A request on the same file that gets there first writes it
// itself (see awaitCommit), and later is then a no-op.
func (s *Server) CreateDeferred(tc *trace.Ctx, parent *trace.Span, data []byte, pfactor int) (capability.Capability, func(), error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpCreate)
	var c capability.Capability
	var later func()
	var err error
	p := s.adopt(data)
	if p == nil {
		if p, err = s.place(tc, sp, len(data)); err == nil {
			copy(p.Bytes(), data)
		}
	}
	if err == nil {
		c, later, err = s.create(tc, sp, p, pfactor)
	}
	annotate(sp, c.Object, int64(len(data)), pfactor, err)
	tc.End(sp)
	return c, later, err
}

// Create is CreateDeferred for in-process callers whose reply is their
// return value: the write-through the P-FACTOR did not wait for gets a
// goroutine.
func (s *Server) Create(data []byte, pfactor int) (capability.Capability, error) {
	c, later, err := s.CreateDeferred(nil, nil, data, pfactor)
	if later != nil {
		//lint:ignore goroutinestop accounted by the file's commit ticket, which a miss, delete or scrub of the file waits on (running the write itself if it gets there first), and by the replica set's pending-write counter, which Sync and Close drain
		go later()
	}
	return c, err
}

// Size implements BULLET.SIZE: the byte size of the file, so the client can
// allocate memory before BULLET.READ (paper §2.2).
func (s *Server) Size(tc *trace.Ctx, parent *trace.Span, c capability.Capability) (int64, error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpSize)
	s.mu.RLock()
	vsp := tc.Begin(sp, trace.LayerEngine, trace.OpVerify)
	_, ino, err := s.verify(c, RightRead)
	annotate(vsp, c.Object, 0, 0, err)
	tc.End(vsp)
	s.mu.RUnlock()
	annotate(sp, c.Object, 0, 0, err)
	tc.End(sp)
	if err != nil {
		return 0, err
	}
	return int64(ino.Size), nil
}

// Delete implements BULLET.DELETE: verify, zero the inode and write it back
// to all disks, free the cache copy and the disk extent (paper §3). The
// metadata lock is held exclusively from the verify to the extent hand-back
// (deletes are rare, and the hand-back must not interleave with compaction
// or a fault publishing against the dying inode); under it the delete waits
// for the file's own create, if unsettled, and no other. The inode write a
// breaker-open replica or the recovery mirror still needs follows the lock.
func (s *Server) Delete(tc *trace.Ctx, parent *trace.Span, c capability.Capability) error {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpDelete)
	later, err := s.delete(tc, sp, c)
	if later != nil {
		later()
	}
	annotate(sp, c.Object, 0, 0, err)
	tc.End(sp)
	return err
}

// Modify implements the §5 extension: generate a new immutable file from
// an existing one, "such that for a small modification it is not necessary
// any longer to transfer the whole file". The new file is the old contents
// resized to newSize (zero-filled when growing, truncated when shrinking;
// newSize < 0 keeps max(oldSize, offset+len(data))), with data spliced in
// at offset. The original file is untouched; a fresh capability is
// returned, with later as CreateDeferred returns it. The derived file's
// create (and its replica fan-out) appears as a child of the modify span.
func (s *Server) Modify(tc *trace.Ctx, parent *trace.Span, c capability.Capability, offset int64, data []byte, newSize int64, pfactor int) (capability.Capability, func(), error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpModify)
	nc, later, err := s.modify(tc, sp, c, offset, data, newSize, pfactor)
	annotate(sp, c.Object, int64(len(data)), pfactor, err)
	tc.End(sp)
	return nc, later, err
}

// Append derives a new file consisting of the old contents followed by
// data — Modify at the old file's end.
func (s *Server) Append(tc *trace.Ctx, parent *trace.Span, c capability.Capability, data []byte, pfactor int) (capability.Capability, func(), error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpAppend)
	var nc capability.Capability
	var later func()
	size, err := s.Size(tc, sp, c)
	if err == nil {
		nc, later, err = s.Modify(tc, sp, c, size, data, size+int64(len(data)), pfactor)
	}
	annotate(sp, c.Object, int64(len(data)), pfactor, err)
	tc.End(sp)
	return nc, later, err
}

// AuthorizeRead reports whether c is a valid capability for a live file
// carrying the read right — the admission check for the TRACE RPC (same
// rule as StatsSnapshot: observability is read-only, so the read right
// suffices).
func (s *Server) AuthorizeRead(c capability.Capability) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, _, err := s.verify(c, RightRead)
	return err
}
