// Package disk provides the block devices underneath the Bullet server and
// the NFS-like baseline: RAM-backed and file-backed devices, a wrapper that
// charges a hwmodel.DiskModel's costs to a virtual clock, failure injection
// for recovery tests, and the two-disk replica set from paper §3.
//
// Devices address whole bytes but promise only sector-granular atomicity;
// callers that need aligned I/O (the inode table) align themselves.
package disk

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the block size of every image bulletd, bulletfsck and
// bulletfs.NewStore create or open: the 512-byte sector of paper §3's
// disks. An image formatted at another size fails the layout
// descriptor check on load.
const SectorSize = 512

// Device is a random-access block storage device.
type Device interface {
	// BlockSize returns the physical sector size in bytes.
	BlockSize() int
	// Blocks returns the device capacity in blocks.
	Blocks() int64
	// ReadAt fills p from the byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at the byte offset off. It neither modifies p nor
	// keeps it past its return: callers write from pinned cache bytes and
	// reuse their buffers.
	WriteAt(p []byte, off int64) error
	// Sync flushes any volatile buffers to stable storage.
	Sync() error
	// Close releases the device.
	Close() error
}

// Errors returned by devices in this package.
var (
	// ErrOutOfRange means an access fell outside the device.
	ErrOutOfRange = errors.New("disk: access out of range")
	// ErrClosed means the device was used after Close.
	ErrClosed = errors.New("disk: device closed")
	// ErrFaulted means injected failure: the device has died.
	ErrFaulted = errors.New("disk: device faulted")
	// ErrNoReplica means every replica of a set has failed.
	ErrNoReplica = errors.New("disk: no working replica")
	// ErrBadGeometry means a device was configured with an unusable
	// block size or capacity, or replicas with mismatched geometries.
	ErrBadGeometry = errors.New("disk: bad device geometry")
)

// MemDisk is a RAM-backed Device. It is the workhorse for tests and for the
// simulated experiments (wrapped in a SimDisk for timing).
type MemDisk struct {
	mu        sync.RWMutex
	data      []byte // guarded by mu
	blockSize int    // immutable after construction
	closed    bool   // guarded by mu
}

var _ Device = (*MemDisk)(nil)

// NewMem returns a zero-filled RAM disk with the given geometry.
func NewMem(blockSize int, blocks int64) (*MemDisk, error) {
	if blockSize <= 0 || blocks <= 0 {
		return nil, fmt.Errorf("%d x %d: %w", blockSize, blocks, ErrBadGeometry)
	}
	return &MemDisk{
		data:      make([]byte, int64(blockSize)*blocks),
		blockSize: blockSize,
	}, nil
}

// BlockSize returns the sector size.
func (d *MemDisk) BlockSize() int { return d.blockSize }

// Blocks returns the capacity in sectors.
func (d *MemDisk) Blocks() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return int64(len(d.data)) / int64(d.blockSize)
}

func (d *MemDisk) checkLocked(n, off int64) error {
	if d.closed {
		return ErrClosed
	}
	if off < 0 || off+n > int64(len(d.data)) {
		return fmt.Errorf("offset %d length %d on %d-byte device: %w", off, n, len(d.data), ErrOutOfRange)
	}
	return nil
}

// ReadAt implements Device.
func (d *MemDisk) ReadAt(p []byte, off int64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkLocked(int64(len(p)), off); err != nil {
		return err
	}
	copy(p, d.data[off:])
	return nil
}

// WriteAt implements Device.
func (d *MemDisk) WriteAt(p []byte, off int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(int64(len(p)), off); err != nil {
		return err
	}
	copy(d.data[off:], p)
	return nil
}

// Sync implements Device; RAM disks are always "stable".
func (d *MemDisk) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Device.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Snapshot returns a copy of the device contents; used by recovery tests to
// compare replicas byte for byte.
func (d *MemDisk) Snapshot() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]byte, len(d.data))
	copy(out, d.data)
	return out
}
