package bench

import (
	"fmt"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/disk"
	"bulletfs/internal/hwmodel"
	"bulletfs/internal/loadgen"
	"bulletfs/internal/rpc"
	"bulletfs/internal/simnet"
	"bulletfs/internal/workload"
)

// The SLO experiment (cmd/benchmark -slo) is the open-loop counterpart of
// the paper tables: instead of one closed-loop client timing isolated
// operations, internal/loadgen offers Poisson arrivals at fixed rates to an
// admission-limited server and records the full latency distribution —
// including queueing, which the closed-loop tables cannot see (coordinated
// omission). The output is an SLO table: offered load x {p50, p99, p99.9,
// max, shed rate}, gated one-sidedly in CI so tail regressions fail while
// improvements pass free.
//
// Everything below is seeded and runs on the virtual clock, so the cells
// are exact across runs and machines; slo_baseline.json pins them.
const (
	sloLimit = 16   // admission: max in-flight file operations
	sloOps   = 600  // arrivals per steady-state cell
	sloFiles = 96   // working-set population
	sloSeed  = 1989 // workload + arrival seed
)

// sloLoads are the offered loads (virtual ops/s) of the steady regime. The
// simulated Amoeba-era server saturates near 100 ops/s, so the sweep holds
// one comfortable point, one near the knee, and one far past it.
var sloLoads = []float64{20, 80, 320}

// chaosLoad runs the fault-injection regime at a moderate load where the
// server has headroom to absorb failover and repair work.
const chaosLoad = 60

// brownoutLoad runs the gray-failure regime. Same moderate point as the
// chaos cell: the interesting question is not throughput but whether a
// replica that slows down (without ever failing) stays invisible to
// clients.
const brownoutLoad = 60

// sloColumns are the per-cell metrics. Latency quantiles cover admitted
// requests end to end (arrival to reply, queueing included); shed_pct is
// the fraction of arrivals refused with StatusBusy; errors counts admitted
// requests that returned a non-OK status — the SLO demands it stays zero.
var sloColumns = []string{
	"offered_ops", "achieved_ops",
	"p50_ms", "p99_ms", "p999_ms", "max_ms",
	"shed_pct", "errors",
}

// sloRow flattens one run into a table row.
func sloRow(label string, res *loadgen.Result) RowT {
	shedPct := 0.0
	if res.Arrivals > 0 {
		shedPct = 100 * float64(res.Shed) / float64(res.Arrivals)
	}
	return RowT{
		Label: label,
		Values: []float64{
			res.Offered,
			res.Achieved,
			msec(res.Latency.QuantileDuration(0.5)),
			msec(res.Latency.QuantileDuration(0.99)),
			msec(res.Latency.QuantileDuration(0.999)),
			msec(time.Duration(res.Latency.Max())),
			shedPct,
			float64(res.Errors),
		},
	}
}

// sloWorkload is the shared workload shape of every SLO cell.
func sloWorkload() workload.Config {
	return workload.Config{Files: sloFiles, Seed: sloSeed}
}

// SLOResult holds the SLO tables and their shape checks.
type SLOResult struct {
	Steady   Table
	Chaos    Table
	Brownout Table
	Checks   []Check
}

// RunSLO measures the steady and chaos SLO tables.
func RunSLO() (*SLOResult, error) {
	out := &SLOResult{
		Steady: Table{
			Title:     fmt.Sprintf("Open-loop SLO, admission limit %d", sloLimit),
			Unit:      "mixed",
			Columns:   sloColumns,
			RowHeader: "Load",
		},
		Chaos: Table{
			Title:     "Open-loop SLO under chaos (bit flips, replica kill/revive)",
			Unit:      "mixed",
			Columns:   sloColumns,
			RowHeader: "Load",
		},
		Brownout: Table{
			Title:     "Open-loop SLO under brownout (main replica slows, never fails)",
			Unit:      "mixed",
			Columns:   sloColumns,
			RowHeader: "Load",
		},
	}

	var lowest, highest *loadgen.Result
	for _, load := range sloLoads {
		w, err := NewBulletWorld(BulletConfig{
			Profile:        hwmodel.AmoebaProfile(),
			AdmissionLimit: sloLimit,
		})
		if err != nil {
			return nil, err
		}
		res, err := loadgen.Run(
			loadgen.Target{Net: w.Net, Port: w.Port, Admission: w.Admission},
			loadgen.Config{
				Arrivals: loadgen.NewPoisson(load, sloSeed),
				Ops:      sloOps,
				Workload: sloWorkload(),
			},
		)
		if err != nil {
			return nil, fmt.Errorf("slo: load %.0f: %w", load, err)
		}
		out.Steady.Rows = append(out.Steady.Rows, sloRow(fmt.Sprintf("%.0f ops", load), res))
		if lowest == nil {
			lowest = res
		}
		highest = res
	}

	chaos, err := runChaosSLO()
	if err != nil {
		return nil, err
	}
	out.Chaos.Rows = append(out.Chaos.Rows, sloRow(fmt.Sprintf("%.0f ops", float64(chaosLoad)), chaos))

	brown, set, err := runBrownoutSLO()
	if err != nil {
		return nil, err
	}
	out.Brownout.Rows = append(out.Brownout.Rows, sloRow(fmt.Sprintf("%.0f ops", float64(brownoutLoad)), brown))

	out.Checks = []Check{
		{
			ID:    "S1",
			Claim: "below saturation clients see no errors and no sheds",
			Detail: fmt.Sprintf("%.0f ops/s: %d arrivals, %d shed, %d errors",
				sloLoads[0], lowest.Arrivals, lowest.Shed, lowest.Errors),
			Pass: lowest.Shed == 0 && lowest.Errors == 0,
		},
		{
			ID:    "S2",
			Claim: "past saturation the server sheds instead of queueing unboundedly",
			Detail: fmt.Sprintf("%.0f ops/s: %d shed, peak in-flight %d (limit %d), %d errors",
				sloLoads[len(sloLoads)-1], highest.Shed, highest.MaxOutstanding, sloLimit, highest.Errors),
			Pass: highest.Shed > 0 && highest.MaxOutstanding <= sloLimit && highest.Errors == 0,
		},
		{
			ID:    "S3",
			Claim: "tail latency grows with offered load",
			Detail: fmt.Sprintf("p99 %.2f ms at %.0f ops/s vs %.2f ms at %.0f ops/s",
				msec(lowest.Latency.QuantileDuration(0.99)), sloLoads[0],
				msec(highest.Latency.QuantileDuration(0.99)), sloLoads[len(sloLoads)-1]),
			Pass: highest.Latency.Quantile(0.99) > lowest.Latency.Quantile(0.99),
		},
		{
			ID:    "S4",
			Claim: "chaos faults stay invisible to admitted clients",
			Detail: fmt.Sprintf("%d arrivals through bit flips and kill/revive: %d errors, %d shed",
				chaos.Arrivals, chaos.Errors, chaos.Shed),
			Pass: chaos.Errors == 0,
		},
		{
			ID:    "B1",
			Claim: "a browned-out replica trips its breaker, recovers, and clients never see an error",
			Detail: fmt.Sprintf("%d arrivals through the brownout: %d errors, breaker opened %dx, replica 0 ends %q",
				brown.Arrivals, brown.Errors, set.BreakerOpens(), set.BreakerState(0)),
			Pass: brown.Errors == 0 && set.BreakerOpens() >= 1 && set.BreakerState(0) == "closed",
		},
		{
			ID:    "B2",
			Claim: "the brownout's blast radius is the streak that trips the breaker, not the whole run",
			Detail: fmt.Sprintf("p50 %.2f ms, p99 %.2f ms, max %.2f ms against a %.0f ms injected stall",
				msec(brown.Latency.QuantileDuration(0.5)), msec(brown.Latency.QuantileDuration(0.99)),
				msec(time.Duration(brown.Latency.Max())), msec(brownoutHeavy)),
			Pass: brown.Latency.QuantileDuration(0.5) < brownoutHeavy &&
				time.Duration(brown.Latency.Max()) < 8*brownoutHeavy,
		},
		{
			ID:    "B3",
			Claim: "hedged reads fire under the brownout and respect the rate cap",
			Detail: fmt.Sprintf("%d hedges across %d laddered reads (cap %d%%)",
				set.HedgedReads(), set.GrayLadderReads(), disk.DefaultHedgeRatePct),
			Pass: set.HedgedReads() > 0 &&
				set.HedgedReads()*100 <= set.GrayLadderReads()*disk.DefaultHedgeRatePct,
		},
	}
	return out, nil
}

// runChaosSLO drives the open-loop workload through scripted faults: a
// burst of bit flips on the main replica (checksum failover + self-heal),
// then a replica kill (writes degrade to the survivor), then heal and a
// synchronous online recovery. Everything fires at fixed arrival indexes
// in the single runner goroutine, so the regime is exactly as
// deterministic as the steady one — StartRecover's background goroutine
// would race its disk-time charges against the workload's, which is why
// recovery runs inline here.
func runChaosSLO() (*loadgen.Result, error) {
	profile := hwmodel.AmoebaProfile()
	clock := &hwmodel.Clock{}
	faulty := make([]*disk.FaultyDisk, 2)
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 64*1024)
		if err != nil {
			return nil, err
		}
		faulty[i] = disk.NewFaulty(mem)
		devs[i] = disk.NewSim(faulty[i], profile.Disk, clock)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return nil, err
	}
	if err := bullet.Format(set, 2000); err != nil {
		return nil, err
	}
	// A small cache forces read misses, so the scripted read corruption is
	// actually consumed and the failover/repair path runs under load.
	eng, err := bullet.New(set, bullet.Options{CacheBytes: 256 << 10})
	if err != nil {
		return nil, err
	}
	mux := rpc.NewMux(0)
	svc := bulletsvc.New(eng)
	adm := bulletsvc.NewAdmission(sloLimit)
	adm.AttachMetrics(eng.Metrics())
	svc.AttachAdmission(adm)
	svc.Register(mux)
	net := simnet.New(mux, clock, profile.Net, profile.CPU)

	var recErr error
	res, err := loadgen.Run(
		loadgen.Target{Net: net, Port: eng.Port(), Admission: adm},
		loadgen.Config{
			Arrivals: loadgen.NewPoisson(chaosLoad, sloSeed),
			Ops:      500,
			Workload: sloWorkload(),
			OnArrival: func(i int) {
				switch i {
				case 120:
					// Bit flips on the main replica's next cache misses:
					// reads must fail over to the mirror and repair.
					faulty[0].CorruptNextReads(4)
				case 220:
					// Kill the mirror: writes degrade to the survivor.
					faulty[1].Fault()
				case 380:
					// Revive and recover inline (see the function comment).
					faulty[1].Heal()
					if err := set.Recover(1); err != nil && recErr == nil {
						recErr = err
					}
				}
			},
		},
	)
	if err != nil {
		return nil, fmt.Errorf("slo: chaos: %w", err)
	}
	if recErr != nil {
		return nil, fmt.Errorf("slo: chaos: recovering replica 1: %w", recErr)
	}
	return res, nil
}

// Brownout script parameters: the heavy phase models a replica that still
// answers but takes 2 virtual seconds per I/O (a dying disk, a saturated
// controller); the mild phase sits below the breaker's MinSlow floor, so
// it must be absorbed by EWMA-ranked hedging, not by tripping the breaker.
const (
	brownoutHeavy = 2 * time.Second
	brownoutMild  = 200 * time.Millisecond
)

// runBrownoutSLO drives a read-only open-loop workload through a gray
// failure — the paper's fail-stop model (§3: a replica is either correct
// or dead) has no word for a disk that merely becomes 100x slower, so
// this cell measures the machinery added for it. The main replica's
// latency is scripted on the virtual clock: a heavy phase (breaker must
// open, reads must fail over to the healthy mirror with zero
// client-visible errors), a quiet phase (cooldown elapses, a half-open
// probe closes the breaker), and a mild phase below the slowness floor
// (predictive hedging absorbs it under the hard rate cap). The injected
// latency is delivered to the virtual clock, never to the wall clock, and
// the read ladder runs every attempt in place on the reading goroutine, so
// the cell is exactly as deterministic as the steady regime.
func runBrownoutSLO() (*loadgen.Result, *disk.ReplicaSet, error) {
	profile := hwmodel.AmoebaProfile()
	clock := &hwmodel.Clock{}
	faulty := make([]*disk.FaultyDisk, 2)
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 64*1024)
		if err != nil {
			return nil, nil, err
		}
		faulty[i] = disk.NewFaulty(mem)
		devs[i] = disk.NewSim(faulty[i], profile.Disk, clock)
	}
	set, err := disk.NewReplicaSet(devs...)
	if err != nil {
		return nil, nil, err
	}
	if err := bullet.Format(set, 2000); err != nil {
		return nil, nil, err
	}
	set.EnableBreakers(disk.BreakerConfig{
		MinSlow:  500 * time.Millisecond,
		Cooldown: 2 * time.Second,
		Now:      func() int64 { return int64(clock.Now()) },
	})
	// The small cache forces read misses so the ladder actually runs.
	eng, err := bullet.New(set, bullet.Options{CacheBytes: 256 << 10})
	if err != nil {
		return nil, nil, err
	}
	mux := rpc.NewMux(0)
	svc := bulletsvc.New(eng)
	adm := bulletsvc.NewAdmission(sloLimit)
	adm.AttachMetrics(eng.Metrics())
	svc.AttachAdmission(adm)
	svc.Register(mux)
	net := simnet.New(mux, clock, profile.Net, profile.CPU)

	// Read-only measured mix: creates would fan writes out to the slowed
	// replica from background goroutines, whose virtual-clock charges
	// would race the runner's. Reads ladder synchronously, so the run
	// stays deterministic.
	w := sloWorkload()
	w.ReadFrac = 1.0
	res, err := loadgen.Run(
		loadgen.Target{Net: net, Port: eng.Port(), Admission: adm},
		loadgen.Config{
			Arrivals: loadgen.NewPoisson(brownoutLoad, sloSeed),
			Ops:      sloOps,
			Workload: w,
			OnArrival: func(i int) {
				switch i {
				case 100:
					// Heavy brownout on the main replica: the breaker
					// must open and reads must drain to the mirror.
					faulty[0].SetLatency(brownoutHeavy, brownoutHeavy, sloSeed, clock.Advance)
				case 250:
					// Quiet: the cooldown elapses, a half-open probe
					// finds the replica fast again and closes the breaker.
					faulty[0].SetLatency(0, 0, 0, nil)
				case 350:
					// Mild brownout below the MinSlow floor: no breaker
					// trip allowed, hedging absorbs the tail instead.
					faulty[0].SetLatency(brownoutMild, brownoutMild, sloSeed, clock.Advance)
				case 500:
					faulty[0].SetLatency(0, 0, 0, nil)
				}
			},
		},
	)
	if err != nil {
		return nil, nil, fmt.Errorf("slo: brownout: %w", err)
	}
	return res, set, nil
}
