package bullet

import (
	"fmt"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// This file is the engine's traced API surface: every public operation
// has a *Traced variant taking a span context and a parent span (both may
// be nil — the plain methods delegate with nil, so traced and untraced
// calls share one body). Each variant opens one engine-layer op span and
// threads tc down through the cache and disk layers, which hang their own
// spans (cache-lookup, cache-insert, disk-read, replica-commit) under it.

// CreateTraced is CreateDeferred for callers whose reply is their return
// value: the write-through the P-FACTOR did not wait for gets a goroutine.
func (s *Server) CreateTraced(tc *trace.Ctx, parent *trace.Span, data []byte, pfactor int) (capability.Capability, error) {
	c, later, err := s.CreateDeferred(tc, parent, data, pfactor)
	if later != nil {
		//lint:ignore goroutinestop accounted by the replica set's pending-write counter, which Sync, Close, delete and the fault path drain — and a Drain that gets there first runs it itself
		go later()
	}
	return c, err
}

// CreateDeferred is Create with span emission, for a caller that can act
// after its reply has left (the TCP serving goroutine): later, when
// non-nil, is the rest of the write-through. Call it once the reply is
// out, on any goroutine; until then do not Drain on this one.
func (s *Server) CreateDeferred(tc *trace.Ctx, parent *trace.Span, data []byte, pfactor int) (capability.Capability, func(), error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpCreate)
	c, later, err := s.create(tc, sp, data, pfactor)
	if sp != nil {
		sp.Bytes = int64(len(data))
		sp.PFactor = int8(pfactor)
		sp.Inode = c.Object
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	return c, later, err
}

// ReadTraced is Read with span emission.
func (s *Server) ReadTraced(tc *trace.Ctx, parent *trace.Span, c capability.Capability) ([]byte, error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpRead)
	data, _, err := s.fetchSpan(tc, sp, c, RightRead, 0, -1)
	if sp != nil {
		sp.Inode = c.Object
		sp.Bytes = int64(len(data))
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	if err != nil {
		return nil, err
	}
	s.m.reads.Inc()
	s.m.bytesOut.Add(int64(len(data)))
	return data, nil
}

// ReadRangeTraced is ReadRange with span emission.
func (s *Server) ReadRangeTraced(tc *trace.Ctx, parent *trace.Span, c capability.Capability, offset, n int64) ([]byte, error) {
	if offset < 0 || n < 0 {
		return nil, fmt.Errorf("range [%d,+%d): %w", offset, n, ErrBadOffset)
	}
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpReadRange)
	data, _, err := s.fetchSpan(tc, sp, c, RightRead, offset, n)
	if sp != nil {
		sp.Inode = c.Object
		sp.Bytes = int64(len(data))
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	if err != nil {
		return nil, err
	}
	s.m.reads.Inc()
	s.m.bytesOut.Add(int64(len(data)))
	return data, nil
}

// SizeTraced is Size with span emission.
func (s *Server) SizeTraced(tc *trace.Ctx, parent *trace.Span, c capability.Capability) (int64, error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpSize)
	s.mu.RLock()
	vsp := tc.Begin(sp, trace.LayerEngine, trace.OpVerify)
	_, ino, err := s.verify(c, RightRead)
	if vsp != nil {
		vsp.Inode = c.Object
		if err != nil {
			vsp.Status = 1
		}
	}
	tc.End(vsp)
	s.mu.RUnlock()
	if sp != nil {
		sp.Inode = c.Object
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	if err != nil {
		return 0, err
	}
	return int64(ino.Size), nil
}

// DeleteTraced is Delete with span emission.
func (s *Server) DeleteTraced(tc *trace.Ctx, parent *trace.Span, c capability.Capability) error {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpDelete)
	err := s.delete(tc, sp, c)
	if sp != nil {
		sp.Inode = c.Object
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	return err
}

// ModifyTraced is Modify with span emission: the derived file's create
// (and its replica fan-out) appears as a child of the modify span.
func (s *Server) ModifyTraced(tc *trace.Ctx, parent *trace.Span, c capability.Capability, offset int64, data []byte, newSize int64, pfactor int) (capability.Capability, error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpModify)
	nc, err := s.modify(tc, sp, c, offset, data, newSize, pfactor)
	if sp != nil {
		sp.Inode = c.Object
		sp.Bytes = int64(len(data))
		sp.PFactor = int8(pfactor)
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	return nc, err
}

// AppendTraced is Append with span emission.
func (s *Server) AppendTraced(tc *trace.Ctx, parent *trace.Span, c capability.Capability, data []byte, pfactor int) (capability.Capability, error) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpAppend)
	nc, err := s.appendBody(tc, sp, c, data, pfactor)
	if sp != nil {
		sp.Inode = c.Object
		sp.Bytes = int64(len(data))
		sp.PFactor = int8(pfactor)
		if err != nil {
			sp.Status = 1
		}
	}
	tc.End(sp)
	return nc, err
}

func (s *Server) appendBody(tc *trace.Ctx, sp *trace.Span, c capability.Capability, data []byte, pfactor int) (capability.Capability, error) {
	size, err := s.SizeTraced(tc, sp, c)
	if err != nil {
		return capability.Capability{}, err
	}
	return s.ModifyTraced(tc, sp, c, size, data, size+int64(len(data)), pfactor)
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
