//go:build chaos

package bullet_test

// Chaos acceptance test for the self-healing stack: three replicas, a
// bit-flipper corrupting the main replica's live extents continuously, a
// background scrubber, reader and writer stress, and one kill/revive +
// online-recovery cycle — all at once, under the race detector. The bar:
// no client ever sees a wrong byte or an error, and after the dust
// settles one scrub pass finds nothing left to fix and all three replica
// images are byte-identical.
//
// Run with: go test -race -tags chaos -run Chaos ./internal/bullet/

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/layout"
	"bulletfs/internal/scrub"
)

type chaosFile struct {
	cap  capability.Capability
	data []byte
}

type extent struct{ off, n int64 }

func TestChaosBitFlipsKillRevive(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test is not short")
	}

	mems := make([]*disk.MemDisk, 3)
	faulty := make([]*disk.FaultyDisk, 3)
	devs := make([]disk.Device, 3)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		mems[i] = mem
		faulty[i] = disk.NewFaulty(mem)
		devs[i] = faulty[i]
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		t.Fatalf("NewReplicaSet: %v", err)
	}
	if err := bullet.Format(set, 200); err != nil {
		t.Fatalf("Format: %v", err)
	}
	// The flipper corrupts far more often than any real disk; don't let
	// the error budget quarantine the abused replica mid-test.
	set.SetErrorBudget(1 << 30)

	// A cache smaller than the working set keeps reads faulting in from
	// disk, which is where verification (and healing) happens.
	srv, err := bullet.New(set, bullet.Options{CacheBytes: 48 << 10})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	defer srv.Close() //nolint:errcheck // test exit

	// Fixed working set: 24 files of 4 KB, read continuously.
	rng := rand.New(rand.NewSource(42))
	files := make([]chaosFile, 24)
	for i := range files {
		data := make([]byte, 4096)
		rng.Read(data)
		c, err := srv.Create(data, 2)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		files[i] = chaosFile{cap: c, data: data}
	}
	srv.Sync() // persist the inode table and checksums before snapshotting extents

	// The flipper targets the initial files' extents, located from the
	// on-disk table (the files are never moved during the test).
	desc, err := layout.ReadDescriptor(mems[0])
	if err != nil {
		t.Fatalf("ReadDescriptor: %v", err)
	}
	table, _, err := layout.Load(mems[0])
	if err != nil {
		t.Fatalf("layout.Load: %v", err)
	}
	var extents []extent
	table.ForEachUsed(func(_ uint32, ino layout.Inode) {
		extents = append(extents, extent{
			off: desc.DataOffset(int64(ino.FirstBlock)),
			n:   ino.Blocks(desc.BlockSize) * int64(desc.BlockSize),
		})
	})
	if len(extents) != len(files) {
		t.Fatalf("found %d live extents, want %d", len(extents), len(files))
	}

	sc := scrub.New(srv, scrub.Config{Interval: 25 * time.Millisecond, BytesPerSec: 64 << 20})
	sc.Start()
	defer sc.Stop()

	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		readErrs atomic.Int64
		flips    atomic.Int64
		errMu    sync.Mutex
		firstErr string
	)
	fail := func(format string, args ...any) {
		readErrs.Add(1)
		errMu.Lock()
		if firstErr == "" {
			firstErr = fmt.Sprintf(format, args...)
		}
		errMu.Unlock()
	}

	// Bit-flipper: persistent silent corruption on replica 0 (the main,
	// which serves every fault-in), bypassing the fault wrapper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		frng := rand.New(rand.NewSource(7))
		b := make([]byte, 1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := extents[frng.Intn(len(extents))]
			off := e.off + frng.Int63n(e.n)
			if mems[0].ReadAt(b, off) == nil {
				b[0] ^= 0x40
				_ = mems[0].WriteAt(b, off)
				flips.Add(1)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Readers: every byte served must be the bytes written, every time.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := files[rrng.Intn(len(files))]
				got, err := srv.Read(f.cap)
				if err != nil {
					fail("client-visible read error: %v", err)
					return
				}
				if !bytes.Equal(got, f.data) {
					fail("client-visible corruption: read returned wrong bytes")
					return
				}
			}
		}(int64(100 + r))
	}

	// Writer: churn creates/reads/deletes so the kill is discovered and
	// degraded-mode commits run throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			data := make([]byte, 512+wrng.Intn(2048))
			wrng.Read(data)
			c, err := srv.Create(data, 2)
			if err != nil {
				fail("client-visible create error: %v", err)
				return
			}
			got, err := srv.Read(c)
			if err != nil || !bytes.Equal(got, data) {
				fail("client-visible read-back error: %v", err)
				return
			}
			if err := srv.Delete(nil, nil, c); err != nil {
				fail("client-visible delete error: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Kill replica 2 mid-chaos, let the writer's commits discover the
	// death, then revive the disk and recover it online.
	time.Sleep(400 * time.Millisecond)
	faulty[2].Fault()
	deadline := time.Now().Add(5 * time.Second)
	for set.Alive(2) {
		if time.Now().After(deadline) {
			t.Fatal("replica 2 never marked dead")
		}
		time.Sleep(time.Millisecond)
	}
	faulty[2].Heal()
	if err := srv.StartRecover(2); err != nil {
		t.Fatalf("StartRecover: %v", err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		h := srv.Health()
		if h.Recovering == -1 && h.LastRecover != nil && !h.LastRecover.Running {
			if h.LastRecover.Error != "" {
				t.Fatalf("recovery failed: %s", h.LastRecover.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery never finished")
		}
		time.Sleep(time.Millisecond)
	}
	if !set.Alive(2) {
		t.Fatal("replica 2 not alive after recovery")
	}

	// Keep the chaos going a while longer on the full set, then settle.
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := readErrs.Load(); n != 0 {
		errMu.Lock()
		defer errMu.Unlock()
		t.Fatalf("%d client-visible errors during chaos; first: %s", n, firstErr)
	}
	if flips.Load() == 0 {
		t.Fatal("flipper never flipped a byte")
	}
	if set.ChecksumErrors(0)+set.Repairs(0)+srv.Metrics().Snapshot().Counters["bullet.scrub_repairs"] == 0 {
		t.Fatal("no corruption was ever detected or repaired: the chaos did not bite")
	}

	// Quiesce and converge: with the flipper stopped, scrubbing must
	// reach a pass that finds nothing to fix.
	sc.Stop()
	srv.Sync()
	clean := false
	for pass := 0; pass < 5 && !clean; pass++ {
		repaired, unrepairable := 0, 0
		for _, obj := range srv.Objects() {
			res := srv.ScrubObject(obj)
			repaired += res.Repaired
			if res.Unrepairable {
				unrepairable++
			}
		}
		if unrepairable != 0 {
			t.Fatalf("pass %d: %d objects unrepairable", pass, unrepairable)
		}
		clean = repaired == 0
	}
	if !clean {
		t.Fatal("scrubbing never converged to a clean pass")
	}
	srv.Sync()

	// Zero divergence: all three replica images are byte-identical.
	s0 := mems[0].Snapshot()
	for i := 1; i < 3; i++ {
		if !bytes.Equal(s0, mems[i].Snapshot()) {
			t.Fatalf("replica %d diverges from replica 0 after full scrub", i)
		}
	}
}
