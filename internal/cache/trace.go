package cache

import "bulletfs/internal/trace"

// ViewInto is GetView into a View the caller provides — the engine's read
// lease embeds one, so a hit allocates nothing here — with a cache-lookup
// span: hit or miss, size on hit. On error v is untouched. tc may be nil
// (untraced paths share this code path shape in the engine).
func (c *Cache) ViewInto(tc *trace.Ctx, parent *trace.Span, v *View, idx uint16, inode uint32) error {
	if !tc.Active() {
		return c.view(v, idx, inode, true)
	}
	sp := tc.Begin(parent, trace.LayerCache, trace.OpCacheLookup)
	err := c.view(v, idx, inode, true)
	if sp != nil {
		sp.Inode = inode
		if err == nil {
			sp.CacheHit = trace.CacheHit
			sp.Bytes = int64(v.Len())
		} else {
			// A stale slot number: logically a miss (the caller faults).
			sp.CacheHit = trace.CacheMiss
		}
	}
	tc.End(sp)
	return err
}

// ReserveTraced is Reserve under a cache-insert span recording the inode
// and the file's size: a trace shows one placement per fault or create.
// tc may be nil.
func (c *Cache) ReserveTraced(tc *trace.Ctx, parent *trace.Span, v *View, inode uint32, size, span int64) ([]Evicted, error) {
	if !tc.Active() {
		return c.Reserve(v, inode, size, span)
	}
	sp := tc.Begin(parent, trace.LayerCache, trace.OpCacheInsert)
	evicted, err := c.Reserve(v, inode, size, span)
	stampInsertSpan(sp, inode, size, err)
	tc.End(sp)
	return evicted, err
}

// stampInsertSpan fills in a cache-insert span's attributes (the caller
// ends it: spanbalance wants End beside Begin).
func stampInsertSpan(sp *trace.Span, inode uint32, size int64, err error) {
	if sp == nil {
		return
	}
	sp.Inode = inode
	sp.Bytes = size
	if err != nil {
		sp.Status = 1
	}
}

// TraceMiss emits a cache-lookup miss span for a file with no cached copy
// at all (the engine consults the inode's cache-index field first, so the
// cache never sees such lookups; this is the tracing analogue of
// NoteMiss). No-op when tc is nil.
func (c *Cache) TraceMiss(tc *trace.Ctx, parent *trace.Span, inode uint32) {
	if !tc.Active() {
		return
	}
	sp := tc.Begin(parent, trace.LayerCache, trace.OpCacheLookup)
	if sp != nil {
		sp.Inode = inode
		sp.CacheHit = trace.CacheMiss
	}
	tc.End(sp)
}
