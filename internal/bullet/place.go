package bullet

import (
	"fmt"

	"bulletfs/internal/cache"
	"bulletfs/internal/trace"
)

// A create's bytes land in memory once, where the file will live: the
// caller places the file (Place), fills the placement's bytes — the RPC
// layer reads a CREATE's payload off the socket straight into them — and
// hands them to CreateDeferred, which adopts the placement and commits it.
// The replicas are written from the same bytes, so between the socket and
// the disk the file is never copied. CreateDeferred knows a placement by
// its bytes because that is all a request handler is given: the RPC layer
// hands it the payload as a plain slice (rpc.StreamHandler).

// Placement is the memory a new file is put in before its create: a
// pinned, unpublished cache slot whose extent is the file rounded up to
// whole disk blocks with the tail zeroed, or, when the cache refuses the
// reservation (its arena pinned solid), a heap buffer of the same length,
// and the create then runs uncached. Its holder either hands Bytes to
// CreateDeferred, which adopts it, or calls Abandon.
type Placement struct {
	s    *Server
	pin  *cache.View // &view while the placement holds a cache slot; nil for a heap buffer
	view cache.View  // the reservation, embedded so that a placement is one allocation
	ext  []byte      // the block-rounded extent: the file's bytes, then zeros
	size int
}

// Bytes is where the file's bytes go: exactly the size it was placed
// with. Valid until the placement is adopted or abandoned.
func (p *Placement) Bytes() []byte { return p.ext[:p.size] }

// Abandon gives the placement back if nobody adopted it: once a create
// has taken it, Abandon (like a second Abandon) does nothing.
func (p *Placement) Abandon() {
	s := p.s
	s.placeMu.Lock()
	mine := s.placed[&p.ext[0]] == p
	if mine {
		delete(s.placed, &p.ext[0])
	}
	s.placeMu.Unlock()
	if mine {
		s.abandon(p.pin, 0)
	}
}

// Place reserves memory for a size-byte file and registers it, so that
// CreateDeferred given exactly its Bytes adopts it instead of copying.
// The reservation is traced under parent; tc may be nil.
func (s *Server) Place(tc *trace.Ctx, parent *trace.Span, size int) (*Placement, error) {
	p, err := s.place(tc, parent, size)
	if err != nil {
		return nil, err
	}
	s.placeMu.Lock()
	s.placed[&p.ext[0]] = p
	s.placeMu.Unlock()
	return p, nil
}

// place reserves a size-byte file's memory, unregistered. The extent is
// never empty: an empty file still occupies one disk block.
func (s *Server) place(tc *trace.Ctx, parent *trace.Span, size int) (*Placement, error) {
	if int64(size) > s.MaxFileSize() {
		return nil, fmt.Errorf("%d bytes: %w", size, ErrTooLarge)
	}
	span := s.blocksFor(int64(size)) * int64(s.desc.BlockSize)
	p := &Placement{s: s, size: size}
	evicted, err := s.cache.ReserveTraced(tc, parent, &p.view, 0, int64(size), span)
	s.clearEvicted(evicted)
	if err != nil {
		p.ext = make([]byte, span)
	} else {
		p.pin = &p.view
		p.ext = p.view.Extent()
	}
	return p, nil
}

// adopt takes the registered placement whose Bytes data is, if any, out
// of the registry: the caller owns it from here on.
func (s *Server) adopt(data []byte) *Placement {
	if cap(data) == 0 {
		return nil
	}
	at := &data[:1][0] // the first byte even of an empty placement's Bytes
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	p := s.placed[at]
	if p == nil || len(data) != p.size {
		return nil
	}
	delete(s.placed, at)
	return p
}
