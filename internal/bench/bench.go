// Package bench regenerates the paper's evaluation (§4): the Bullet
// performance tables (Fig. 2), the SUN NFS comparison tables (Fig. 3), the
// textual comparison claims, and the ablations DESIGN.md calls out. All
// experiments run on the virtual clock: the simulated Ethernet
// (internal/simnet) and simulated disks (internal/disk.SimDisk) charge
// calibrated costs (internal/hwmodel) while every payload byte really
// moves through the full client/RPC/server/cache/disk stack.
package bench

import (
	"fmt"
	"strings"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/client"
	"bulletfs/internal/disk"
	"bulletfs/internal/hwmodel"
	"bulletfs/internal/nfs"
	"bulletfs/internal/rpc"
	"bulletfs/internal/simnet"
)

// PaperSizes is the file-size sweep of Figs. 2 and 3. The OCR of the
// supplied paper text lost the interior row labels; this is the canonical
// 1 B .. 1 MB six-point sweep (EXPERIMENTS.md records the assumption).
var PaperSizes = []int{1, 16, 256, 4 * 1024, 64 * 1024, 1 << 20}

// SizeLabel renders a size the way the paper's tables do.
func SizeLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d Mbyte", n/(1<<20))
	case n >= 1024 && n%1024 == 0:
		return fmt.Sprintf("%d Kbytes", n/1024)
	case n == 1:
		return "1 byte"
	default:
		return fmt.Sprintf("%d bytes", n)
	}
}

// Table is one paper-style table: rows of labelled values.
type Table struct {
	Title   string
	Unit    string
	Columns []string
	Rows    []RowT
	// RowHeader labels the row column; empty means the classic "File Size".
	RowHeader string
}

// RowT is one table row.
type RowT struct {
	Label  string
	Values []float64
}

// Format renders the table as aligned text, millisecond values with two
// decimals, bandwidths as integers.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s)\n", t.Title, t.Unit)
	width := 14
	header := t.RowHeader
	if header == "" {
		header = "File Size"
	}
	fmt.Fprintf(&b, "%-12s", header)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", width, c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s", r.Label)
		for _, v := range r.Values {
			if t.Unit == "msec" {
				fmt.Fprintf(&b, "%*.2f", width, v)
			} else {
				fmt.Fprintf(&b, "%*.0f", width, v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Check is one pass/fail shape assertion against the paper's claims.
type Check struct {
	ID     string
	Claim  string
	Detail string
	Pass   bool
}

// Format renders a check result line.
func (c Check) Format() string {
	mark := "PASS"
	if !c.Pass {
		mark = "FAIL"
	}
	return fmt.Sprintf("[%s] %s: %s — %s", mark, c.ID, c.Claim, c.Detail)
}

// msec converts a duration to the paper's millisecond unit.
func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// kbps computes the paper's KB/s bandwidth figure for moving size bytes in d.
func kbps(size int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(size) / 1024 / d.Seconds()
}

// pattern builds a deterministic payload.
func pattern(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*31 + 7)
	}
	return out
}

// BulletWorld is a simulated Bullet deployment: engine on two simulated
// disks, service on a simulated Ethernet, client without client caching
// (the paper measured server performance).
type BulletWorld struct {
	Clock  *hwmodel.Clock
	Net    *simnet.Net
	Client *client.Client
	Engine *bullet.Server
	Port   capability.Port

	// Service is the RPC-facing service wrapper around Engine.
	Service *bulletsvc.Service
	// Admission is the service's in-flight limiter; nil unless the world
	// was built with an AdmissionLimit.
	Admission *bulletsvc.Admission
}

// BulletConfig sizes a BulletWorld.
type BulletConfig struct {
	Profile    hwmodel.Profile
	Replicas   int
	DiskBlocks int64 // per replica, 512-byte sectors (default 64k = 32 MB)
	CacheBytes int64 // server RAM cache (default 8 MB)
	Inodes     int
	// AdmissionLimit bounds concurrent file operations at the service;
	// past it requests are shed with StatusBusy (0 = unlimited).
	AdmissionLimit int
	// WrapDisk, when set, wraps each replica's simulated disk, in index
	// order, before the replica set is built (experiments that hold or
	// count device calls).
	WrapDisk func(disk.Device) disk.Device
}

// NewBulletWorld builds and formats a simulated Bullet deployment.
func NewBulletWorld(cfg BulletConfig) (*BulletWorld, error) {
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 64 * 1024 // 32 MB per disk
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 8 << 20
	}
	if cfg.Inodes == 0 {
		cfg.Inodes = 2000
	}
	clock := &hwmodel.Clock{}
	devs := make([]disk.Device, cfg.Replicas)
	for i := range devs {
		mem, err := disk.NewMem(512, cfg.DiskBlocks)
		if err != nil {
			return nil, err
		}
		devs[i] = disk.NewSim(mem, cfg.Profile.Disk, clock)
		if cfg.WrapDisk != nil {
			devs[i] = cfg.WrapDisk(devs[i])
		}
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return nil, err
	}
	if err := bullet.Format(set, cfg.Inodes); err != nil {
		return nil, err
	}
	eng, err := bullet.New(set, bullet.Options{CacheBytes: cfg.CacheBytes})
	if err != nil {
		return nil, err
	}
	mux := rpc.NewMux(0)
	svc := bulletsvc.New(eng)
	var adm *bulletsvc.Admission
	if cfg.AdmissionLimit > 0 {
		adm = bulletsvc.NewAdmission(cfg.AdmissionLimit)
		adm.AttachMetrics(eng.Metrics())
		svc.AttachAdmission(adm)
	}
	svc.Register(mux)
	net := simnet.New(mux, clock, cfg.Profile.Net, cfg.Profile.CPU)
	return &BulletWorld{
		Clock:     clock,
		Net:       net,
		Client:    client.New(net),
		Engine:    eng,
		Port:      eng.Port(),
		Service:   svc,
		Admission: adm,
	}, nil
}

// Measure runs op and returns the virtual time it consumed.
func Measure(clock *hwmodel.Clock, op func() error) (time.Duration, error) {
	start := clock.Now()
	err := op()
	return clock.Since(start), err
}

// NFSWorld is a simulated SunOS NFS deployment: block server on one
// simulated disk, per-block RPCs on the simulated Ethernet, no client
// caching (the paper disabled it with lockf).
//
// ResidencyWindow models the working-set pressure of the rest of the
// department on the shared production server (the paper idled only the
// *client*): blocks stay in the 3 MB buffer cache for roughly this long
// before other traffic cycles them out. Operations shorter than the window
// run warm (small files); an operation longer than the window finds its
// blocks evicted again by the next iteration (the 1 MB rows) — which is
// what bends the NFS curve down at 1 MB in Fig. 3.
type NFSWorld struct {
	Clock  *hwmodel.Clock
	Net    *simnet.Net
	Client *nfs.Client
	Server *nfs.Server
	Port   capability.Port

	ResidencyWindow time.Duration
	lastChurn       time.Duration
}

// NFSConfig sizes an NFSWorld.
type NFSConfig struct {
	Profile     hwmodel.Profile
	DiskBlocks  int64 // 512-byte sectors (default 128k = 64 MB)
	CacheBytes  int64 // buffer cache (default 3 MB, the paper's server)
	AllocStride int   // block-allocation scatter (default 7: aged FS)
	// Residency is how long a cached block survives the production load
	// (default 2.5 s). Zero uses the default; negative disables churn
	// (an idle, dedicated server — used by the ablation).
	Residency time.Duration
}

// NewNFSWorld builds and formats a simulated NFS deployment.
func NewNFSWorld(cfg NFSConfig) (*NFSWorld, error) {
	if cfg.DiskBlocks == 0 {
		cfg.DiskBlocks = 128 * 1024 // 64 MB
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 3 << 20
	}
	if cfg.AllocStride == 0 {
		cfg.AllocStride = 7
	}
	switch {
	case cfg.Residency == 0:
		cfg.Residency = 2500 * time.Millisecond
	case cfg.Residency < 0:
		cfg.Residency = 0 // disabled
	}
	clock := &hwmodel.Clock{}
	mem, err := disk.NewMem(512, cfg.DiskBlocks)
	if err != nil {
		return nil, err
	}
	dev := disk.NewSim(mem, cfg.Profile.Disk, clock)
	if err := nfs.Format(dev, nfs.FormatConfig{}); err != nil {
		return nil, err
	}
	srv, err := nfs.Mount(dev, nfs.Options{CacheBytes: cfg.CacheBytes, AllocStride: cfg.AllocStride})
	if err != nil {
		return nil, err
	}
	mux := rpc.NewMux(0)
	port := capability.PortFromString("nfs-bench")
	nfs.NewService(srv, port).Register(mux)
	net := simnet.New(mux, clock, cfg.Profile.Net, cfg.Profile.CPU)
	return &NFSWorld{
		Clock:           clock,
		Net:             net,
		Client:          nfs.NewClient(net, port),
		Server:          srv,
		Port:            port,
		ResidencyWindow: cfg.Residency,
		lastChurn:       clock.Now(),
	}, nil
}

// Churn applies the production-load eviction rule: if more virtual time
// has passed since the previous call than the residency window, the other
// clients of the shared server have cycled the buffer cache — everything
// cached is gone.
func (w *NFSWorld) Churn() {
	now := w.Clock.Now()
	elapsed := now - w.lastChurn
	w.lastChurn = now
	if w.ResidencyWindow <= 0 || elapsed <= w.ResidencyWindow {
		return
	}
	w.Server.EvictCache(w.Server.CachedBlocks())
}
