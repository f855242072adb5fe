package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/cache"
	"bulletfs/internal/disk"
)

// This experiment validates the concurrent read path with deterministic
// counters rather than virtual-clock latencies: the virtual clock is
// additive and single-threaded, so "parallel time" cannot be charged to
// it. What CAN be measured exactly is the work the concurrency machinery
// saves or overlaps — disk reads coalesced by the fault singleflight, the
// replica quorum the committer writes itself versus what settles in the
// background, and compactions deferred by pinned cache views.

// parallelGate parks ReadAt calls while armed so the experiment can hold
// a fault leader mid-read and pile concurrent misses onto it.
type parallelGate struct {
	disk.Device
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (d *parallelGate) ReadAt(p []byte, off int64) error {
	if d.armed.Load() {
		select {
		case d.entered <- struct{}{}:
		default:
		}
		<-d.release
	}
	return d.Device.ReadAt(p, off)
}

// RunParallelExp measures the concurrent read path added for multi-client
// service: fault singleflight, the quorum-then-background replica commit,
// and pinned-view compaction deference. Every reported cell is a
// deterministic counter.
func RunParallelExp() (*Table, []Check, error) {
	tab := &Table{
		Title:   "Concurrent read path (deterministic counters)",
		Unit:    "count",
		Columns: []string{"VALUE"},
	}
	var checks []Check
	row := func(label string, v float64) {
		tab.Rows = append(tab.Rows, RowT{Label: label, Values: []float64{v}})
	}

	// --- Fault singleflight: 8 cold readers, one disk read. -------------
	const readers = 8
	mem, err := disk.NewMem(512, 4096)
	if err != nil {
		return nil, nil, err
	}
	gate := &parallelGate{Device: mem, entered: make(chan struct{}, 1), release: make(chan struct{})}
	set, err := disk.NewReplicaSet(gate)
	if err != nil {
		return nil, nil, err
	}
	if err := bullet.Format(set, 100); err != nil {
		return nil, nil, err
	}
	warm, err := bullet.New(set, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		return nil, nil, err
	}
	data := pattern(64 << 10)
	c, err := warm.Create(data, 1)
	if err != nil {
		return nil, nil, err
	}
	warm.Sync()
	// Restarting over the same disks discards the RAM cache, so the next
	// reads all miss.
	cold, err := bullet.New(set, bullet.Options{Port: warm.Port(), CacheBytes: 1 << 20})
	if err != nil {
		return nil, nil, err
	}
	baseReads := set.Reads(0)
	gate.armed.Store(true)
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	read := func() {
		got, rerr := cold.Read(c)
		if rerr == nil && len(got) != len(data) {
			rerr = fmt.Errorf("short read: %d of %d", len(got), len(data))
		}
		errs <- rerr
	}
	wg.Add(1)
	go func() { // the leader parks inside its disk read
		defer wg.Done()
		read()
	}()
	<-gate.entered
	started := make(chan struct{}, readers-1)
	for i := 1; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			read()
		}()
	}
	for i := 1; i < readers; i++ {
		<-started
	}
	// Give the started readers time to register on the in-flight fault;
	// stragglers that miss the window are served from the cache instead
	// and cost no extra disk read either way.
	time.Sleep(200 * time.Millisecond)
	gate.armed.Store(false)
	close(gate.release)
	wg.Wait()
	for i := 0; i < readers; i++ {
		if err := <-errs; err != nil {
			return nil, nil, fmt.Errorf("bench parallel: concurrent read: %w", err)
		}
	}
	diskReads := float64(set.Reads(0) - baseReads)
	merges := cold.Stats().FaultMerges
	row("singleflight disk reads", diskReads)
	checks = append(checks, Check{
		ID:    "P1",
		Claim: fmt.Sprintf("%d concurrent cold reads of one file cost one disk read", readers),
		Detail: fmt.Sprintf("disk reads %.0f, merged waiters %d of %d",
			diskReads, merges, readers-1),
		Pass: diskReads == 1 && merges >= 1,
	})

	// --- Commit quorum: width accounting. -------------------------------
	// Plain RAM disks, no virtual clock: the quorum counters say how many
	// replicas each reply waited for, whatever a write costs.
	const commits = 16
	cdevs := make([]disk.Device, 2)
	for i := range cdevs {
		m, err := disk.NewMem(512, 4096)
		if err != nil {
			return nil, nil, err
		}
		cdevs[i] = m
	}
	cset, err := disk.NewReplicaSet(cdevs...)
	if err != nil {
		return nil, nil, err
	}
	if err := bullet.Format(cset, 100); err != nil {
		return nil, nil, err
	}
	eng, err := bullet.New(cset, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		return nil, nil, err
	}
	base := eng.Metrics().Snapshot().Gauges
	for i := 0; i < commits; i++ {
		if _, err := eng.Create(pattern(4096), 2); err != nil {
			return nil, nil, err
		}
	}
	// Snapshot before Sync: the counters are live atomics and the commit
	// fan-outs are synchronous, while Sync adds a housekeeping write of
	// its own (the batched checksum flush) that is not a commit.
	cur := eng.Metrics().Snapshot().Gauges
	eng.Sync()
	pc := float64(cur["disk.parallel_commits"] - base["disk.parallel_commits"])
	fan := float64(cur["disk.parallel_commit_fanout"] - base["disk.parallel_commit_fanout"])
	row("parallel commits", pc)
	row("commit fanout", fan)
	checks = append(checks, Check{
		ID:     "P2",
		Claim:  "a P-FACTOR 2 create waits on exactly 2 replicas",
		Detail: fmt.Sprintf("%.0f commits fanned out to %.0f synchronous replica writes", pc, fan),
		Pass:   pc == commits && fan == 2*commits,
	})

	// --- Quorum reply: a P-FACTOR 1 commit returns while a replica is still writing.
	memA, err := disk.NewMem(512, 64)
	if err != nil {
		return nil, nil, err
	}
	memB, err := disk.NewMem(512, 64)
	if err != nil {
		return nil, nil, err
	}
	slow := &heldDisk{Device: memB} // the deliberately slow replica
	slow.hold.Lock()
	qset, err := disk.NewReplicaSet(memA, slow)
	if err != nil {
		return nil, nil, err
	}
	// The remainder stays parked in the set; the Drain below writes it.
	if _, err := qset.ApplyDeferred(nil, nil, 1, func(i int, dev disk.Device) error {
		return dev.WriteAt([]byte("quorum"), 0)
	}, nil); err != nil {
		return nil, nil, fmt.Errorf("bench parallel: quorum apply: %w", err)
	}
	pendingAtReply := float64(qset.Writes(0) - qset.Writes(1))
	slow.hold.Unlock()
	qset.Drain()
	settled := float64(qset.Writes(1))
	row("quorum reply before slow replica", pendingAtReply)
	row("background write settled by drain", settled)
	checks = append(checks, Check{
		ID:    "P3",
		Claim: "the reply waits for the quorum only, never for the remaining replicas",
		Detail: fmt.Sprintf("replied with %.0f write still in flight; drain settled it (%.0f)",
			pendingAtReply, settled),
		Pass: pendingAtReply == 1 && settled == 1,
	})

	// --- Pinned views: compaction defers to in-flight readers. ----------
	ca, err := cache.New(1<<20, 16)
	if err != nil {
		return nil, nil, err
	}
	idx, _, err := ca.Insert(1, pattern(4096))
	if err != nil {
		return nil, nil, err
	}
	view, err := ca.GetView(idx, 1)
	if err != nil {
		return nil, nil, err
	}
	pinnedAtPeak := float64(ca.Stats().PinnedViews)
	if err := ca.Compact(); err != nil {
		view.Release()
		return nil, nil, err
	}
	skipped := float64(ca.Stats().CompactionsSkipped)
	view.Release()
	if err := ca.Compact(); err != nil {
		return nil, nil, err
	}
	skippedAfter := float64(ca.Stats().CompactionsSkipped)
	row("pinned views at peak", pinnedAtPeak)
	row("compactions skipped while pinned", skipped)
	checks = append(checks, Check{
		ID:    "P4",
		Claim: "cache compaction defers to pinned views and proceeds after release",
		Detail: fmt.Sprintf("pinned %.0f, skipped %.0f while pinned, %.0f after release",
			pinnedAtPeak, skipped, skippedAfter),
		Pass: pinnedAtPeak == 1 && skipped == 1 && skippedAfter == 1,
	})

	return tab, checks, nil
}
