package bulletsvc

import (
	"encoding/json"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/scrub"
)

// TestHandleSalvage exercises the wire surface of cmd 14: health is
// admitted with the read right, scrub and recover demand the admin
// right, and malformed selectors or replica indices are rejected before
// they reach the engine.
func TestHandleSalvage(t *testing.T) {
	svc, eng := newService(t)

	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("salvage me"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create status = %v", rep.Status)
	}
	owner := rep.Cap
	readOnly, err := capability.Restrict(owner, capability.RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}

	// Health: read right suffices, reply is a JSON HealthReport.
	rep, body := call(svc, rpc.Header{Command: CmdSalvage, Cap: readOnly, Arg: SalvageHealth}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("health status = %v", rep.Status)
	}
	var h HealthReport
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health report does not decode: %v", err)
	}
	if h.LayoutVersion != 2 || h.LiveFiles != 1 || len(h.Replicas) != 2 {
		t.Fatalf("health report = %+v", h)
	}
	if h.Scrub != nil {
		t.Fatalf("scrub status reported with no scrubber attached: %+v", h.Scrub)
	}

	// Scrub and recover are admin operations: a read-only capability is
	// turned away with StatusBadRights.
	for _, sel := range []uint64{SalvageScrub, SalvageRecover} {
		rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: readOnly, Arg: sel}, nil)
		if rep.Status != rpc.StatusBadRights {
			t.Fatalf("selector %d with read-only cap: status = %v, want bad rights", sel, rep.Status)
		}
	}

	// Scrub with the owner capability but no scrubber attached: the
	// command is not available.
	rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageScrub}, nil)
	if rep.Status != rpc.StatusBadCommand {
		t.Fatalf("scrub without scrubber: status = %v, want bad command", rep.Status)
	}

	// Attach a scrubber: the same request now triggers a pass, and the
	// health report grows a scrub section.
	sc := scrub.New(eng, scrub.Config{Interval: 0, BytesPerSec: scrub.DefaultBytesPerSec})
	sc.Start()
	defer sc.Stop()
	svc.AttachScrubber(sc)
	rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageScrub}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("scrub status = %v", rep.Status)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sc.Status().Passes == 0 {
		if time.Now().After(deadline) {
			t.Fatal("triggered scrub pass never completed")
		}
		time.Sleep(time.Millisecond)
	}
	rep, body = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageHealth}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("health status = %v", rep.Status)
	}
	h = HealthReport{}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health report does not decode: %v", err)
	}
	if h.Scrub == nil || h.Scrub.Passes == 0 || h.Scrub.FilesChecked == 0 {
		t.Fatalf("scrub status after pass = %+v", h.Scrub)
	}

	// Recover with an out-of-range replica index is a bad request, not a
	// crash or an engine-side panic.
	rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageRecover, Arg2: 7}, nil)
	if rep.Status != rpc.StatusBadRequest {
		t.Fatalf("recover replica 7: status = %v, want bad request", rep.Status)
	}

	// Unknown selector.
	rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: 9}, nil)
	if rep.Status != rpc.StatusBadRequest {
		t.Fatalf("selector 9: status = %v, want bad request", rep.Status)
	}
}

// TestHandleSalvageRecoverBusy proves the StatusBusy mapping: a second
// recover while one is running is refused on the wire, and a recover of
// a dead replica completes and is visible in the health report.
func TestHandleSalvageRecoverBusy(t *testing.T) {
	devs := make([]disk.Device, 2)
	faulty := make([]*disk.FaultyDisk, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
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
	eng, err := bullet.New(set, bullet.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatalf("bullet.New: %v", err)
	}
	t.Cleanup(func() { _ = eng.Close() })
	svc := New(eng)

	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("recover me"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create status = %v", rep.Status)
	}
	owner := rep.Cap

	// Kill replica 1, then make the set notice through a failed write.
	faulty[1].Fault()
	rep, _ = call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("discover the dead disk"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create with one dead replica: status = %v", rep.Status)
	}
	if set.Alive(1) {
		t.Fatal("replica 1 still marked alive after faulted write")
	}
	faulty[1].Heal()

	rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageRecover, Arg2: 1}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("recover status = %v", rep.Status)
	}
	// A concurrent second recover answers busy. The first recovery is
	// tiny, so it may already have finished — accept OK in that case but
	// demand that at least the wire mapping never reports anything else.
	rep, _ = call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageRecover, Arg2: 1}, nil)
	if rep.Status != rpc.StatusOK && rep.Status != rpc.StatusBusy {
		t.Fatalf("second recover status = %v, want ok or busy", rep.Status)
	}

	var h HealthReport
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep, body := call(svc, rpc.Header{Command: CmdSalvage, Cap: owner, Arg: SalvageHealth}, nil)
		if rep.Status != rpc.StatusOK {
			t.Fatalf("health status = %v", rep.Status)
		}
		h = HealthReport{}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("health report does not decode: %v", err)
		}
		if h.Recovering == -1 && h.LastRecover != nil && !h.LastRecover.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery never finished: %+v", h)
		}
		time.Sleep(time.Millisecond)
	}
	if h.LastRecover.Replica != 1 || h.LastRecover.Error != "" {
		t.Fatalf("last recover = %+v", h.LastRecover)
	}
	if h.Recoveries == 0 {
		t.Fatalf("recoveries counter = %d, want > 0", h.Recoveries)
	}
}
