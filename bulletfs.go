// Package bulletfs is a Go reproduction of the Bullet file server — the
// high-performance file server of the Amoeba distributed operating system
// (van Renesse, Tanenbaum, Wilschut, "The Design of a High-Performance
// File Server", ICDCS 1989).
//
// The Bullet model: files are immutable, stored contiguously on disk,
// cached contiguously in the server's RAM, and transferred whole. The
// operations are create, size, read and delete — updates make new files,
// and the directory service keeps the version lineage. Objects are named
// and protected by Amoeba sparse capabilities.
//
// This package is the public facade over the implementation packages:
//
//   - Store assembles a Bullet engine on replica disks (RAM- or
//     file-backed) and serves it, in process or over TCP;
//   - Dial connects a Client to a remote store;
//   - Stack wires a complete in-process deployment — Bullet store,
//     directory service, log server and the UNIX emulation — for
//     applications and tests.
//
// The reproduction of the paper's evaluation lives in cmd/benchmark; see
// DESIGN.md and EXPERIMENTS.md.
package bulletfs

import (
	"errors"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/directory"
	"bulletfs/internal/disk"
	"bulletfs/internal/logsrv"
	"bulletfs/internal/rpc"
	"bulletfs/internal/unixemu"
)

// Re-exported capability types: capabilities address and protect every
// object in the system (paper §2.1).
type (
	// Capability names one object: server port, object number, rights and
	// a cryptographic check field.
	Capability = capability.Capability
	// Rights is the capability's permission bitmask.
	Rights = capability.Rights
	// Port identifies a server (48 bits, location independent).
	Port = capability.Port
)

// Rights bits.
const (
	RightRead   = capability.RightRead
	RightCreate = capability.RightCreate
	RightDelete = capability.RightDelete
	RightModify = capability.RightModify
	RightList   = capability.RightList
	RightAdmin  = capability.RightAdmin
	RightsAll   = capability.RightsAll
)

// Restrict derives a weaker capability from an owner capability without
// contacting the server (the one-way-function scheme of paper §2.1).
func Restrict(c Capability, mask Rights) (Capability, error) {
	return capability.Restrict(c, mask)
}

// ParseCapability decodes the textual capability form printed by
// Capability.String (port:object:rights:check, hex).
func ParseCapability(s string) (Capability, error) { return capability.Parse(s) }

// PortFromName derives a stable service port from a name, so servers and
// clients can agree on it across restarts.
func PortFromName(name string) Port { return capability.PortFromString(name) }

// Client is the Bullet client: Create, Size, Read, Delete, plus the §5
// extensions (Modify, Append, ReadRange) and administrative calls.
type Client = client.Client

// WithCache enables the client-side cache of immutable files.
var WithCache = client.WithCache

// StoreConfig describes a Bullet store to assemble.
type StoreConfig struct {
	// ReplicaPaths are disk image files, one per replica. Empty means two
	// RAM-backed replicas (testing / ephemeral use).
	ReplicaPaths []string
	// Format initializes the disks before serving (required on first run
	// and for RAM-backed replicas, where it is implied).
	Format bool
	// DiskMB is each replica's size when formatting (default 64).
	DiskMB int64
	// Inodes is the inode table capacity when formatting (default 10000).
	Inodes int
	// CacheMB is the server RAM cache (default 16).
	CacheMB int64
	// PortName derives the server's capability port (default "bullet").
	PortName string
	// GroupCommitWindow batches concurrent creates' replica sync
	// round-trips for up to this long (0 disables grouping).
	GroupCommitWindow time.Duration
}

// Store is an assembled Bullet file server.
type Store struct {
	engine *bullet.Server
	tcp    *rpc.TCPServer
}

// NewStore assembles (and, if asked, formats) a Bullet store.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.DiskMB == 0 {
		cfg.DiskMB = 64
	}
	if cfg.Inodes == 0 {
		cfg.Inodes = 10000
	}
	if cfg.CacheMB == 0 {
		cfg.CacheMB = 16
	}
	if cfg.PortName == "" {
		cfg.PortName = "bullet"
	}
	var devs []disk.Device
	if len(cfg.ReplicaPaths) == 0 {
		cfg.Format = true
		for i := 0; i < 2; i++ {
			mem, err := disk.NewMem(disk.SectorSize, cfg.DiskMB<<20/disk.SectorSize)
			if err != nil {
				return nil, err
			}
			devs = append(devs, mem)
		}
	} else {
		for _, p := range cfg.ReplicaPaths {
			var dev disk.Device
			var err error
			if cfg.Format {
				dev, err = disk.CreateFile(p, disk.SectorSize, cfg.DiskMB<<20/disk.SectorSize)
			} else {
				dev, err = disk.OpenFile(p, disk.SectorSize)
			}
			if err != nil {
				return nil, err
			}
			devs = append(devs, dev)
		}
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return nil, err
	}
	if cfg.Format {
		if err := bullet.Format(set, cfg.Inodes); err != nil {
			return nil, err
		}
	}
	engine, err := bullet.New(set, bullet.Options{
		Port:              capability.PortFromString(cfg.PortName),
		CacheBytes:        cfg.CacheMB << 20,
		GroupCommitWindow: cfg.GroupCommitWindow,
	})
	if err != nil {
		return nil, err
	}
	return &Store{engine: engine}, nil
}

// Port returns the store's capability port.
func (s *Store) Port() Port { return s.engine.Port() }

// Engine exposes the underlying engine for advanced use (stats,
// compaction).
func (s *Store) Engine() *bullet.Server { return s.engine }

// ServeTCP starts serving the store on addr and returns the bound
// address.
func (s *Store) ServeTCP(addr string) (string, error) {
	mux := rpc.NewMux(0)
	mux.AttachMetrics(s.engine.Metrics(), bulletsvc.CommandName)
	bulletsvc.New(s.engine).Register(mux)
	s.tcp = rpc.NewTCPServer(mux)
	return s.tcp.Listen(addr)
}

// Close drains write-through and shuts everything down.
func (s *Store) Close() error {
	if s.tcp != nil {
		if err := s.tcp.Close(); err != nil {
			return err
		}
	}
	s.engine.Sync()
	return s.engine.Close()
}

// Dial connects to a Bullet store served at addr under the given service
// port name.
func Dial(addr, portName string, opts ...client.Option) (*Client, Port, error) {
	p := capability.PortFromString(portName)
	tr := rpc.NewTCPTransport(rpc.StaticResolver(map[Port]string{p: addr}), 30*time.Second)
	return client.New(tr, opts...), p, nil
}

// Stack is a complete in-process deployment: a Bullet store, a directory
// server persisting to it, a log server, and clients for all three —
// everything the examples and tests need in one call.
type Stack struct {
	Store     *Store
	Files     *Client
	FilePort  Port
	Dirs      *directory.Client
	DirServer *directory.Server
	Root      Capability
	Logs      *logsrv.Client
	LogServer *logsrv.Server
	Mux       *rpc.Mux
}

// NewStack builds an in-process deployment on RAM disks.
func NewStack() (*Stack, error) {
	store, err := NewStore(StoreConfig{})
	if err != nil {
		return nil, err
	}
	mux := rpc.NewMux(0)
	bulletsvc.New(store.engine).Register(mux)
	tr := rpc.NewLocal(mux)
	files := client.New(tr)

	dsrv, err := directory.New(directory.Options{
		Store: files, StorePort: store.Port(), PFactor: 2,
	})
	if err != nil {
		return nil, err
	}
	dsrv.Register(mux)
	dirs := directory.NewClient(tr)
	root, err := dirs.Root(dsrv.Port())
	if err != nil {
		return nil, err
	}

	lsrv, err := logsrv.New(logsrv.Options{Store: files, StorePort: store.Port(), PFactor: 2})
	if err != nil {
		return nil, err
	}
	lsrv.Register(mux)

	return &Stack{
		Store:     store,
		Files:     files,
		FilePort:  store.Port(),
		Dirs:      dirs,
		DirServer: dsrv,
		Root:      root,
		Logs:      logsrv.NewClient(tr),
		LogServer: lsrv,
		Mux:       mux,
	}, nil
}

// FS returns a POSIX-flavoured view (paper §5's UNIX emulation) rooted at
// the stack's root directory.
func (s *Stack) FS() (*unixemu.FS, error) {
	return unixemu.New(unixemu.Options{
		Files: s.Files, FilePort: s.FilePort,
		Dirs: s.Dirs, Root: s.Root, PFactor: 2,
	})
}

// CollectGarbage reclaims Bullet files no longer referenced by the
// directory service (any binding or retained version), the directory's
// own checkpoint, or a live log's checkpoint — Amoeba's mark-and-sweep
// reconciliation between the naming layer and the store. Orphans arise
// when version histories are trimmed or clients crash between creating a
// file and binding its name. Run it during quiescence (the paper's
// "3 am" maintenance window): files created concurrently with the mark
// phase would be swept wrongly.
func (s *Stack) CollectGarbage() (int, error) {
	keep := s.DirServer.ReferencedObjects(s.FilePort)
	for obj := range s.LogServer.ReferencedObjects(s.FilePort) {
		keep[obj] = true
	}
	return s.Store.Engine().SweepExcept(keep)
}

// ErrNotInitialized means a Stack method was called before Open succeeded.
var ErrNotInitialized = errors.New("bulletfs: stack not initialized")

// Close shuts the stack down.
func (s *Stack) Close() error {
	if s.Store == nil {
		return ErrNotInitialized
	}
	return s.Store.Close()
}
