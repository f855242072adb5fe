// Package client provides the Bullet client stubs: BULLET.CREATE,
// BULLET.SIZE, BULLET.READ and BULLET.DELETE from paper §2.2, the §5
// extensions, and an optional client-side cache of immutable files.
//
// "Client caching of immutable files is straightforward" (§5): a file's
// bytes can never change under a given capability, so a cached copy keyed
// by the exact capability is valid forever — it only needs dropping for
// space, or when the file is deleted through this client.
package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// ErrTransport marks failures that happened before a reply arrived — dial,
// send, receive, timeout. Callers distinguish these from server-side
// rejections (capability.ErrBadCheck, capability.ErrBadRights, ...) with
// errors.Is; scripts get distinct exit codes from bulletctl.
var ErrTransport = errors.New("bullet client: transport failure")

// Client calls Bullet servers over any rpc.Transport. One Client can talk
// to many servers; each file operation is addressed by the capability's
// port. Client is safe for concurrent use.
type Client struct {
	tr       rpc.Transport
	cache    *fileCache
	traceIDs bool          // stamp each transaction with a trace ID (see WithTraceIDs)
	budget   time.Duration // per-operation deadline budget (see WithBudget)
}

// Option configures a Client.
type Option func(*Client)

// WithCache enables the client-side immutable-file cache with the given
// capacity in bytes.
func WithCache(maxBytes int64) Option {
	return func(c *Client) {
		if maxBytes > 0 {
			c.cache = newFileCache(maxBytes)
		}
	}
}

// WithBudget attaches a deadline budget to every operation: the call
// carries the remaining time on the wire (the v2 deadline TLV), a
// retrying transport refreshes it per attempt, and the server sheds the
// request with StatusDeadlineExceeded — surfaced here as
// trace.ErrDeadlineExceeded, never as a transport failure — when the
// budget cannot cover the work. d <= 0 leaves calls unbounded.
func WithBudget(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.budget = d
		}
	}
}

// New builds a Client on a transport.
func New(tr rpc.Transport, opts ...Option) *Client {
	c := &Client{tr: tr}
	for _, o := range opts {
		o(c)
	}
	return c
}

func (c *Client) call(port capability.Port, req rpc.Header, payload []byte) (rpc.Header, []byte, error) {
	opts := rpc.CallOpts{Budget: c.budget}
	if c.traceIDs {
		opts.TraceID = newTraceID()
	}
	rep, body, err := rpc.Call(c.tr, port, opts, req, payload, nil)
	if err != nil {
		// A spent budget is a deadline outcome, not a transport failure:
		// callers asked for bounded time and got exactly that.
		if errors.Is(err, trace.ErrDeadlineExceeded) {
			return rpc.Header{}, nil, fmt.Errorf("bullet client: budget spent: %w", err)
		}
		return rpc.Header{}, nil, fmt.Errorf("%w: %w", ErrTransport, err)
	}
	if rep.Status != rpc.StatusOK {
		op := bulletsvc.CommandName(req.Command)
		if op == "" {
			op = fmt.Sprintf("cmd%d", req.Command)
		}
		return rep, nil, fmt.Errorf("bullet client: %s rejected: %w", op, bulletsvc.ErrorOf(rep.Status))
	}
	return rep, body, nil
}

// Create stores data as a new immutable file on the server at port and
// returns its owner capability. pfactor is the paranoia factor of §2.2.
func (c *Client) Create(port capability.Port, data []byte, pfactor int) (capability.Capability, error) {
	rep, _, err := c.call(port, rpc.Header{Command: bulletsvc.CmdCreate, Arg: uint64(pfactor)}, data)
	if err != nil {
		return capability.Capability{}, err
	}
	if c.cache != nil {
		c.cache.put(rep.Cap, data)
	}
	return rep.Cap, nil
}

// Size returns the file's size in bytes (call before Read to allocate, as
// the paper prescribes; this client's Read allocates for you).
func (c *Client) Size(cap capability.Capability) (int64, error) {
	if c.cache != nil {
		if data, ok := c.cache.get(cap); ok {
			return int64(len(data)), nil
		}
	}
	rep, _, err := c.call(cap.Port, rpc.Header{Command: bulletsvc.CmdSize, Cap: cap}, nil)
	if err != nil {
		return 0, err
	}
	return int64(rep.Arg), nil
}

// Read returns the whole file. Cached immutable copies are served without
// a transaction.
func (c *Client) Read(cap capability.Capability) ([]byte, error) {
	if c.cache != nil {
		if data, ok := c.cache.get(cap); ok {
			out := make([]byte, len(data))
			copy(out, data)
			return out, nil
		}
	}
	_, body, err := c.call(cap.Port, rpc.Header{Command: bulletsvc.CmdRead, Cap: cap}, nil)
	if err != nil {
		return nil, err
	}
	if c.cache != nil {
		c.cache.put(cap, body)
	}
	return body, nil
}

// ReadRange returns n bytes starting at offset (clipped at EOF).
func (c *Client) ReadRange(cap capability.Capability, offset, n int64) ([]byte, error) {
	req := rpc.Header{Command: bulletsvc.CmdReadRange, Cap: cap, Arg: uint64(offset), Arg2: uint64(n)}
	_, body, err := c.call(cap.Port, req, nil)
	if err != nil {
		return nil, err
	}
	return body, nil
}

// Delete discards the file and drops any cached copy.
func (c *Client) Delete(cap capability.Capability) error {
	if c.cache != nil {
		c.cache.drop(cap)
	}
	_, _, err := c.call(cap.Port, rpc.Header{Command: bulletsvc.CmdDelete, Cap: cap}, nil)
	return err
}

// Modify derives a new immutable file: the old contents resized to newSize
// (-1 keeps the natural size) with data spliced in at offset. Returns the
// new file's capability; the original is untouched.
func (c *Client) Modify(cap capability.Capability, offset int64, data []byte, newSize int64, pfactor int) (capability.Capability, error) {
	req := rpc.Header{
		Command: bulletsvc.CmdModify,
		Cap:     cap,
		Arg:     uint64(offset),
		Arg2:    bulletsvc.PackModifyArg2(newSize, pfactor),
	}
	rep, _, err := c.call(cap.Port, req, data)
	if err != nil {
		return capability.Capability{}, err
	}
	return rep.Cap, nil
}

// Append derives a new file consisting of the old contents plus data.
func (c *Client) Append(cap capability.Capability, data []byte, pfactor int) (capability.Capability, error) {
	req := rpc.Header{Command: bulletsvc.CmdAppend, Cap: cap, Arg: uint64(pfactor)}
	rep, _, err := c.call(cap.Port, req, data)
	if err != nil {
		return capability.Capability{}, err
	}
	return rep.Cap, nil
}

// Stat fetches the server's counters.
func (c *Client) Stat(port capability.Port) (bulletsvc.ServerStats, error) {
	_, body, err := c.call(port, rpc.Header{Command: bulletsvc.CmdStat}, nil)
	if err != nil {
		return bulletsvc.ServerStats{}, err
	}
	var st bulletsvc.ServerStats
	if err := unmarshalStats(body, &st); err != nil {
		return bulletsvc.ServerStats{}, err
	}
	return st, nil
}

// Stats fetches the server's full metrics snapshot — counters, gauges and
// latency histograms across every layer. Unlike Stat it is
// capability-checked: cap must name a live file on the server and carry the
// read right (statistics are read-only, so the read right suffices).
func (c *Client) Stats(cap capability.Capability) (stats.Snapshot, error) {
	_, body, err := c.call(cap.Port, rpc.Header{Command: bulletsvc.CmdStats, Cap: cap}, nil)
	if err != nil {
		return stats.Snapshot{}, err
	}
	var snap stats.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return stats.Snapshot{}, fmt.Errorf("bullet client: decoding stats snapshot: %w", err)
	}
	return snap, nil
}

// Sync waits until the server's background write-through has drained.
func (c *Client) Sync(port capability.Port) error {
	_, _, err := c.call(port, rpc.Header{Command: bulletsvc.CmdSync}, nil)
	return err
}

// CompactDisk triggers the server's disk compactor.
func (c *Client) CompactDisk(port capability.Port) error {
	_, _, err := c.call(port, rpc.Header{Command: bulletsvc.CmdCompactDisk}, nil)
	return err
}

// CacheStats reports the client cache state (zero value when disabled).
type CacheStats struct {
	Files int
	Bytes int64
	Hits  int64
	Miss  int64
}

// CacheStats returns client-cache counters.
func (c *Client) CacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	return c.cache.stats()
}

// fileCache is a byte-bounded FIFO cache of immutable files keyed by exact
// capability. Immutability makes invalidation unnecessary; eviction is for
// space only, in insertion order (the workloads that benefit re-read
// recent files; an LRU would also work and costs more bookkeeping).
type fileCache struct {
	mu    sync.Mutex
	max   int64
	used  int64
	data  map[capability.Capability][]byte
	order []capability.Capability
	hits  int64
	miss  int64
}

func newFileCache(max int64) *fileCache {
	return &fileCache{max: max, data: make(map[capability.Capability][]byte)}
}

func (f *fileCache) get(cap capability.Capability) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	data, ok := f.data[cap]
	if ok {
		f.hits++
	} else {
		f.miss++
	}
	return data, ok
}

func (f *fileCache) put(cap capability.Capability, data []byte) {
	size := int64(len(data))
	if size > f.max {
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.data[cap]; dup {
		return
	}
	for f.used+size > f.max && len(f.order) > 0 {
		victim := f.order[0]
		f.order = f.order[1:]
		f.used -= int64(len(f.data[victim]))
		delete(f.data, victim)
	}
	f.data[cap] = cp
	f.order = append(f.order, cap)
	f.used += size
}

func (f *fileCache) drop(cap capability.Capability) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if old, ok := f.data[cap]; ok {
		f.used -= int64(len(old))
		delete(f.data, cap)
		for i, k := range f.order {
			if k == cap {
				f.order = append(f.order[:i], f.order[i+1:]...)
				break
			}
		}
	}
}

func (f *fileCache) stats() CacheStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return CacheStats{Files: len(f.data), Bytes: f.used, Hits: f.hits, Miss: f.miss}
}

func unmarshalStats(body []byte, st *bulletsvc.ServerStats) error {
	if err := json.Unmarshal(body, st); err != nil {
		return fmt.Errorf("bullet client: decoding stats: %w", err)
	}
	return nil
}
