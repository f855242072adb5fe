package bullet

import (
	"fmt"

	"bulletfs/internal/cache"
	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// errBadSpan reports a malformed or out-of-bounds read span. size < 0
// means the span was rejected before the file was consulted.
func errBadSpan(offset, size int64) error {
	if size < 0 {
		return fmt.Errorf("range start %d: %w", offset, ErrBadOffset)
	}
	return fmt.Errorf("offset %d past size %d: %w", offset, size, ErrBadOffset)
}

// This file is the engine's one read. ReadView returns a ReadLease that
// keeps the cache pin alive — the slot a hit found, or the slot a miss
// just read the disk into; the caller — in practice the RPC reply path —
// writes the bytes to the socket and only then releases the lease, so a
// read travels cache arena -> kernel with zero payload copies. Read is
// the copying convenience for in-process callers: a lease, one copy, a
// release.

// ReadLease is a borrowed window onto a file's bytes. While unreleased,
// a pinned lease holds a reference on the cache slot backing Bytes, which
// blocks eviction and compaction of that slot (the same contract as
// cache.View). Callers must Release every lease on every path; the
// bulletlint pinleak pass enforces this, and handing the lease to the RPC
// reply path (rpc.Owned) transfers the obligation there.
type ReadLease struct {
	data   []byte
	size   int64
	view   *cache.View // the pin: &pin on a hit, a fault's reservation on a miss; nil when the lease owns data outright
	pin    cache.View  // a hit's pin, embedded so that a hit allocates one object, the lease
	shared bool        // data is also other leases' (a merged fault the cache refused): read-only
}

// pinSlot pins the cached copy of inode in slot idx into a new whole-file
// lease, recording the cache lookup. A stale slot (evicted, or reused by
// another inode) pins nothing and returns nil.
func (s *Server) pinSlot(tc *trace.Ctx, parent *trace.Span, idx uint16, inode uint32) *ReadLease {
	l := new(ReadLease)
	if s.cache.ViewInto(tc, parent, &l.pin, idx, inode) != nil {
		return nil
	}
	l.view = &l.pin
	l.data = l.pin.Bytes()
	l.size = int64(len(l.data))
	return l
}

// Bytes is the leased span. It is valid only until Release.
func (l *ReadLease) Bytes() []byte { return l.data }

// Size is the total size of the file the span was cut from.
func (l *ReadLease) Size() int64 { return l.size }

// Pinned reports whether the lease holds a cache pin rather than owning
// its bytes outright (a fault the cache had no room to reserve for).
func (l *ReadLease) Pinned() bool { return l.view != nil }

// Release returns the lease's backing resources. Idempotent; Bytes is
// invalid afterwards.
func (l *ReadLease) Release() {
	if l.view != nil {
		l.view.Release()
		l.view = nil
	}
	l.data = nil
}

// trim narrows a whole-file lease to [offset, offset+n) and counts it;
// a bad span releases the lease.
func (s *Server) trim(l *ReadLease, offset, n int64) (*ReadLease, error) {
	data, _, err := cut(l.data, offset, n)
	if err != nil {
		l.Release()
		return nil, err
	}
	l.data = data
	if l.Pinned() {
		s.m.leasePinned.Inc()
	} else {
		s.m.leaseOwned.Inc()
	}
	return l, nil
}

// cut bounds [offset, offset+n) against data (n < 0 means to the end)
// and returns the subslice plus the full size — no copy, unlike span.
func cut(data []byte, offset, n int64) ([]byte, int64, error) {
	size := int64(len(data))
	if offset > size {
		return nil, size, errBadSpan(offset, size)
	}
	end := size
	if n >= 0 && offset+n < size {
		end = offset + n
	}
	return data[offset:end], size, nil
}

// fetchLease is the body of ReadView, shared with Modify (which needs the
// modify right as well and is not a read): verify the capability for
// want, pin the cached bytes (hit) or run the singleflight disk fault
// (miss), and cut the requested span. The caller owns the returned lease
// and must Release it on every path.
func (s *Server) fetchLease(tc *trace.Ctx, parent *trace.Span, c capability.Capability, want capability.Rights, offset, n int64) (*ReadLease, error) {
	s.mu.RLock()
	vsp := tc.Begin(parent, trace.LayerEngine, trace.OpVerify)
	inode, ino, err := s.verify(c, want)
	annotate(vsp, inode, 0, 0, err)
	tc.End(vsp)
	if err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	if ino.CacheIndex != 0 {
		if l := s.pinSlot(tc, parent, ino.CacheIndex, inode); l != nil {
			s.mu.RUnlock()
			// The span is cut from the pinned bytes without copying; the
			// pin rides in the lease and keeps the slot put until Release.
			return s.trim(l, offset, n)
		}
		// Stale index (eviction raced the lookup): clear it, unless a
		// concurrent fault already published a fresh binding.
		_, _ = s.table.SetCacheIndexIf(inode, ino.CacheIndex, 0)
	} else {
		s.cache.TraceMiss(tc, parent, inode)
	}
	s.mu.RUnlock()

	fsp := tc.Begin(parent, trace.LayerEngine, trace.OpFault)
	l, waited, err := s.faultIn(tc, fsp, inode, ino.Random)
	if fsp != nil {
		fsp.Inode = inode
		if l != nil {
			fsp.Bytes = l.size
		}
		fsp.Merged = waited
		if err != nil {
			fsp.Status = 1
		}
	}
	tc.End(fsp)
	if err != nil {
		return nil, err
	}
	return s.trim(l, offset, n)
}

// ReadView implements BULLET.READ and its §5 ranged form: n bytes of the
// file starting at offset (n < 0 means to the end), as a lease on the
// cached bytes. A hit pins the cached copy; a miss loads the file
// contiguously from disk into the cache first (paper §3), merged with any
// concurrent miss on the same file. tc and parent may be nil (untraced).
// The caller must Release the lease on every path.
func (s *Server) ReadView(tc *trace.Ctx, parent *trace.Span, c capability.Capability, offset, n int64) (*ReadLease, error) {
	if offset < 0 {
		return nil, errBadSpan(offset, -1)
	}
	op := trace.OpRead
	if offset != 0 || n >= 0 {
		op = trace.OpReadRange
	}
	sp := tc.Begin(parent, trace.LayerEngine, op)
	l, err := s.fetchLease(tc, sp, c, RightRead, offset, n)
	var bytes int64
	if l != nil {
		bytes = int64(len(l.data))
	}
	annotate(sp, c.Object, bytes, 0, err)
	tc.End(sp)
	if err != nil {
		return nil, err
	}
	s.m.reads.Inc()
	s.m.bytesOut.Add(bytes)
	return l, nil
}

// Read is the whole file as a slice the caller keeps: ReadView, one copy
// out of a pinned or shared lease (counted in bullet.read_copies),
// Release. A lease that alone owns its buffer (the cache refused the
// fault) is handed through without a copy.
func (s *Server) Read(c capability.Capability) ([]byte, error) {
	l, err := s.ReadView(nil, nil, c, 0, -1)
	if err != nil {
		return nil, err
	}
	if !l.Pinned() && !l.shared {
		out := l.Bytes()
		l.Release()
		return out, nil
	}
	// append instead of make+copy: the runtime skips zeroing the fresh
	// slice, one full memory pass saved on every read.
	out := append([]byte(nil), l.Bytes()...)
	l.Release()
	s.m.readCopies.Inc()
	return out, nil
}
