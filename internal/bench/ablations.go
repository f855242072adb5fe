package bench

import (
	"fmt"
	"sync"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/hwmodel"
)

// RunAblation regenerates experiment A1 (DESIGN.md): contiguous whole-file
// storage versus the block model on *identical* simulated hardware — the
// same Amoeba RPC stack, the same disk, an idle dedicated server, and a
// freshly formatted (stride 1) filesystem for the block server. Whatever
// gap remains is attributable purely to the paper's two design choices:
// contiguity and whole-file transfer. The Fig. 2/Fig. 3 comparison, by
// contrast, also includes Sun RPC overheads, filesystem aging and
// production cache pressure.
func RunAblation() (*Table, error) {
	profile := hwmodel.AmoebaProfile()

	bw, err := NewBulletWorld(BulletConfig{Profile: profile})
	if err != nil {
		return nil, err
	}
	nw, err := NewNFSWorld(NFSConfig{
		Profile:     profile,
		AllocStride: 1,  // freshly formatted: best case for the block model
		Residency:   -1, // dedicated idle server: no cache churn
	})
	if err != nil {
		return nil, err
	}
	root, err := nw.Client.Root()
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:   "A1 ablation: contiguous vs block layout, identical hardware (delay)",
		Unit:    "msec",
		Columns: []string{"BULLET-READ", "BLOCK-READ", "BULLET-CRE", "BLOCK-CRE"},
	}
	for si, size := range PaperSizes {
		data := pattern(size)

		// Bullet read (SIZE+READ) and create, pf=1 to match the block
		// server's single disk.
		cap0, err := bw.Client.Create(bw.Port, data, 1)
		if err != nil {
			return nil, err
		}
		// Settle the background (post-P-FACTOR) replica write so its disk
		// time cannot leak into the measured read.
		if err := bw.Client.Sync(bw.Port); err != nil {
			return nil, err
		}
		bRead, err := Measure(bw.Clock, func() error {
			if _, err := bw.Client.Size(cap0); err != nil {
				return err
			}
			_, err := bw.Client.Read(cap0)
			return err
		})
		if err != nil {
			return nil, err
		}
		bCreate, err := Measure(bw.Clock, func() error {
			c, err := bw.Client.Create(bw.Port, data, 1)
			if err != nil {
				return err
			}
			return bw.Client.Delete(c)
		})
		if err != nil {
			return nil, err
		}
		if err := bw.Client.Delete(cap0); err != nil {
			return nil, err
		}

		// Block server on the same hardware.
		name := fmt.Sprintf("a1-%d", si)
		h, err := nw.Client.CreateWrite(root, name, data)
		if err != nil {
			return nil, err
		}
		// Warm pass, then measure (idle dedicated server: cache is fair).
		if _, err := nw.Client.ReadAll(h); err != nil {
			return nil, err
		}
		nRead, err := Measure(nw.Clock, func() error {
			_, err := nw.Client.ReadAll(h)
			return err
		})
		if err != nil {
			return nil, err
		}
		nCreate, err := Measure(nw.Clock, func() error {
			_, err := nw.Client.CreateWrite(root, name+"x", data)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := nw.Client.Remove(root, name+"x"); err != nil {
			return nil, err
		}

		t.Rows = append(t.Rows, RowT{
			Label:  SizeLabel(size),
			Values: []float64{msec(bRead), msec(nRead), msec(bCreate), msec(nCreate)},
		})
	}
	return t, nil
}

// heldDisk parks WriteAt calls while hold is write-locked: an experiment's
// handle on a replica write the reply does not wait for. The virtual clock
// is shared and additive, so A2 keeps such writes off it until the
// measurement window has closed; the quorum check (P3) uses one as its
// deliberately slow replica.
type heldDisk struct {
	disk.Device
	hold sync.RWMutex
}

func (d *heldDisk) WriteAt(p []byte, off int64) error {
	d.hold.RLock()
	defer d.hold.RUnlock()
	return d.Device.WriteAt(p, off)
}

// RunPFactor regenerates experiment A2: the create delay for each paranoia
// factor (§2.2). P-FACTOR 0 replies after the RAM cache copy, 1 after one
// disk, 2 after both; the remaining writes continue in the background.
// The quorum is the first pf replicas (main first), so the harness holds
// the others back while it measures, then releases and drains them so each
// point is clean.
func RunPFactor() (*Table, error) {
	var held []*heldDisk
	w, err := NewBulletWorld(BulletConfig{
		Profile: hwmodel.AmoebaProfile(),
		WrapDisk: func(d disk.Device) disk.Device {
			held = append(held, &heldDisk{Device: d})
			return held[len(held)-1]
		},
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "A2: create delay by paranoia factor (two replica disks)",
		Unit:    "msec",
		Columns: []string{"PF=0", "PF=1", "PF=2"},
	}
	for _, size := range PaperSizes {
		data := pattern(size)
		var vals []float64
		for pf := 0; pf <= 2; pf++ {
			var total time.Duration
			for i := 0; i < iterations; i++ {
				var c capability.Capability
				for _, h := range held[pf:] {
					h.hold.Lock()
				}
				d, err := Measure(w.Clock, func() error {
					var err error
					c, err = w.Client.Create(w.Port, data, pf)
					return err
				})
				for _, h := range held[pf:] {
					h.hold.Unlock()
				}
				if err != nil {
					return nil, fmt.Errorf("bench a2 pf=%d: %w", pf, err)
				}
				total += d
				// Settle background write-through outside the measurement
				// and clean up.
				if err := w.Client.Sync(w.Port); err != nil {
					return nil, err
				}
				if err := w.Client.Delete(c); err != nil {
					return nil, err
				}
			}
			vals = append(vals, msec(total/iterations))
		}
		t.Rows = append(t.Rows, RowT{Label: SizeLabel(size), Values: vals})
	}
	return t, nil
}

// PFactorChecks verifies the A2 shape: delay grows with the paranoia
// factor, and PF=0 is (nearly) independent of file size on the server side
// — the reply leaves after the RAM copy; only the request's wire time
// scales.
func PFactorChecks(t *Table) []Check {
	ordered := true
	for _, r := range t.Rows {
		if !(r.Values[0] <= r.Values[1] && r.Values[1] <= r.Values[2]) {
			ordered = false
		}
	}
	checks := []Check{{
		ID:     "A2a",
		Claim:  "create delay is monotonic in the paranoia factor",
		Detail: "PF=0 <= PF=1 <= PF=2 at every size",
		Pass:   ordered,
	}}
	// At 1 MB, PF=2 must cost two disk transfers more than PF=0.
	last := t.Rows[len(t.Rows)-1]
	checks = append(checks, Check{
		ID:    "A2b",
		Claim: "PF=2 pays both disk writes before replying",
		Detail: fmt.Sprintf("1 MB: PF=0 %.0f ms, PF=2 %.0f ms",
			last.Values[0], last.Values[2]),
		Pass: last.Values[2] > last.Values[0]*1.5,
	})
	return checks
}

// RunFragmentation regenerates experiment A3: external fragmentation under
// create/delete churn — the §3 trade-off of contiguous allocation ("an 800
// MB disk to store 500 MB worth of files ... unless compaction is done") —
// and what the 3 a.m. compactor buys back.
func RunFragmentation() (*Table, []Check, error) {
	w, err := NewBulletWorld(BulletConfig{Profile: hwmodel.AmoebaProfile(), DiskBlocks: 32 * 1024, Inodes: 4000})
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   "A3: external fragmentation under churn (16 MB data area)",
		Unit:    "percent/blocks",
		Columns: []string{"USED%", "FRAG%", "LARGEST"},
	}
	// Churn: create files of mixed sizes, delete a pseudo-random half,
	// repeat. Sizes follow the paper's observation that most files are
	// small (median 1 KB) with a tail of large ones.
	sizes := []int{512, 1024, 1024, 2048, 4096, 8192, 65536, 262144}
	var live []capability.Capability
	seq := 0
	for round := 1; round <= 6; round++ {
		for i := 0; i < 60; i++ {
			size := sizes[seq%len(sizes)]
			c, err := w.Client.Create(w.Port, pattern(size), 2)
			if err != nil {
				// Disk full mid-churn is part of the story; stop filling.
				break
			}
			live = append(live, c)
			seq++
		}
		// Delete roughly half, scattered across the allocation order.
		kept := live[:0]
		for i, c := range live {
			if (i*2654435761)%100 < 50 {
				if err := w.Client.Delete(c); err != nil {
					return nil, nil, err
				}
				continue
			}
			kept = append(kept, c)
		}
		live = kept

		st := w.Engine.DiskStats()
		t.Rows = append(t.Rows, RowT{
			Label: fmt.Sprintf("round %d", round),
			Values: []float64{
				100 * float64(st.Used) / float64(st.Total),
				100 * st.Fragmentation(),
				float64(st.LargestFree),
			},
		})
	}
	before := w.Engine.DiskStats()
	if err := w.Client.CompactDisk(w.Port); err != nil {
		return nil, nil, err
	}
	after := w.Engine.DiskStats()
	t.Rows = append(t.Rows, RowT{
		Label: "compacted",
		Values: []float64{
			100 * float64(after.Used) / float64(after.Total),
			100 * after.Fragmentation(),
			float64(after.LargestFree),
		},
	})
	checks := []Check{
		{
			ID:    "A3a",
			Claim: "churn fragments the contiguous store",
			Detail: fmt.Sprintf("fragmentation %.0f%% before compaction",
				100*before.Fragmentation()),
			Pass: before.Fragmentation() > 0.1,
		},
		{
			ID:    "A3b",
			Claim: "compaction restores one maximal hole",
			Detail: fmt.Sprintf("largest free %d -> %d blocks, fragmentation %.0f%% -> %.0f%%",
				before.LargestFree, after.LargestFree,
				100*before.Fragmentation(), 100*after.Fragmentation()),
			Pass: after.Fragmentation() == 0 && after.LargestFree >= before.LargestFree,
		},
	}
	// All surviving files still readable after the great slide.
	for _, c := range live {
		if _, err := w.Client.Read(c); err != nil {
			checks = append(checks, Check{
				ID: "A3c", Claim: "files survive compaction",
				Detail: err.Error(), Pass: false,
			})
			return t, checks, nil
		}
	}
	checks = append(checks, Check{
		ID: "A3c", Claim: "files survive compaction",
		Detail: fmt.Sprintf("all %d surviving files intact", len(live)), Pass: true,
	})
	return t, checks, nil
}

// RunCacheExp regenerates experiment A4: read delay and hit rate as the
// working set grows past the server's RAM cache — the regime where the
// whole-file cache stops absorbing the disk (paper §3's LRU machinery).
func RunCacheExp() (*Table, []Check, error) {
	const cacheBytes = 1 << 20 // 1 MB cache for a fast sweep
	const fileSize = 64 << 10  // 64 KB files
	t := &Table{
		Title:   "A4: whole-file cache under growing working sets (1 MB cache, 64 KB files)",
		Unit:    "msec/percent",
		Columns: []string{"READ-MS", "HIT%"},
	}
	var smallDelay, bigDelay float64
	for _, files := range []int{4, 8, 16, 32, 64} {
		w, err := NewBulletWorld(BulletConfig{
			Profile:    hwmodel.AmoebaProfile(),
			CacheBytes: cacheBytes,
			DiskBlocks: 64 * 1024,
		})
		if err != nil {
			return nil, nil, err
		}
		caps := make([]capability.Capability, files)
		for i := range caps {
			c, err := w.Client.Create(w.Port, pattern(fileSize), 2)
			if err != nil {
				return nil, nil, err
			}
			caps[i] = c
		}
		statsBefore := w.Engine.Stats()
		var total time.Duration
		reads := 0
		for round := 0; round < 3; round++ {
			for _, c := range caps {
				d, err := Measure(w.Clock, func() error {
					_, err := w.Client.Read(c)
					return err
				})
				if err != nil {
					return nil, nil, err
				}
				total += d
				reads++
			}
		}
		st := w.Engine.Stats()
		hits := st.CacheHits - statsBefore.CacheHits
		misses := st.CacheMisses - statsBefore.CacheMisses
		hitRate := 100 * float64(hits) / float64(hits+misses)
		mean := msec(total / time.Duration(reads))
		t.Rows = append(t.Rows, RowT{
			Label:  fmt.Sprintf("%d files", files),
			Values: []float64{mean, hitRate},
		})
		if files == 4 {
			smallDelay = mean
		}
		if files == 64 {
			bigDelay = mean
		}
	}
	checks := []Check{{
		ID:    "A4",
		Claim: "reads slow down once the working set exceeds the RAM cache",
		Detail: fmt.Sprintf("64 KB read: %.1f ms in-cache vs %.1f ms thrashing",
			smallDelay, bigDelay),
		Pass: bigDelay > smallDelay*1.3,
	}}
	return t, checks, nil
}
