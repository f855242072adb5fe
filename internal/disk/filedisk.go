package disk

import (
	"fmt"
	"os"
	"sync"
)

// FileDisk is a Device backed by a file in the host filesystem, used by the
// real daemons (cmd/bulletd) for durable storage.
//
// ReadAt, WriteAt and Sync share mu: pread and pwrite are
// position-independent, so transfers to different extents of one replica
// overlap. Only Close takes it exclusively, so the descriptor is never
// closed under an in-flight transfer.
type FileDisk struct {
	mu        sync.RWMutex
	f         *os.File // guarded by mu
	blockSize int      // immutable after construction
	blocks    int64    // immutable after construction
	closed    bool     // guarded by mu
}

var _ Device = (*FileDisk)(nil)

// CreateFile makes (or truncates) a file-backed device of the given
// geometry at path.
func CreateFile(path string, blockSize int, blocks int64) (*FileDisk, error) {
	if blockSize <= 0 || blocks <= 0 {
		return nil, fmt.Errorf("%d x %d: %w", blockSize, blocks, ErrBadGeometry)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, fmt.Errorf("disk: create %s: %w", path, err)
	}
	if err := f.Truncate(int64(blockSize) * blocks); err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: size %s: %w", path, err)
	}
	return &FileDisk{f: f, blockSize: blockSize, blocks: blocks}, nil
}

// OpenFile opens an existing file-backed device created by CreateFile. The
// block size must be supplied by the caller (the Bullet disk descriptor in
// inode 0 records it; layout.Load verifies).
func OpenFile(path string, blockSize int) (*FileDisk, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("block size %d: %w", blockSize, ErrBadGeometry)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o600)
	if err != nil {
		return nil, fmt.Errorf("disk: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("disk: stat %s: %w", path, err)
	}
	if st.Size()%int64(blockSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("%s size %d not a multiple of block size %d: %w", path, st.Size(), blockSize, ErrBadGeometry)
	}
	return &FileDisk{f: f, blockSize: blockSize, blocks: st.Size() / int64(blockSize)}, nil
}

// BlockSize returns the sector size.
func (d *FileDisk) BlockSize() int { return d.blockSize }

// Blocks returns the capacity in sectors.
func (d *FileDisk) Blocks() int64 { return d.blocks }

func (d *FileDisk) checkLocked(n, off int64) error {
	if d.closed {
		return ErrClosed
	}
	if off < 0 || off+n > d.blocks*int64(d.blockSize) {
		return fmt.Errorf("offset %d length %d: %w", off, n, ErrOutOfRange)
	}
	return nil
}

// ReadAt implements Device.
func (d *FileDisk) ReadAt(p []byte, off int64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkLocked(int64(len(p)), off); err != nil {
		return err
	}
	if _, err := d.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("disk: read at %d: %w", off, err)
	}
	return nil
}

// WriteAt implements Device.
func (d *FileDisk) WriteAt(p []byte, off int64) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if err := d.checkLocked(int64(len(p)), off); err != nil {
		return err
	}
	if _, err := d.f.WriteAt(p, off); err != nil {
		return fmt.Errorf("disk: write at %d: %w", off, err)
	}
	return nil
}

// Sync implements Device.
func (d *FileDisk) Sync() error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("disk: sync: %w", err)
	}
	return nil
}

// Close implements Device.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("disk: close: %w", err)
	}
	return nil
}
