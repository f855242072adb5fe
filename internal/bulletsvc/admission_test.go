package bulletsvc

import (
	"sync"
	"testing"

	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
)

func TestAdmissionTryEnterRelease(t *testing.T) {
	a := NewAdmission(2)
	if !a.TryEnter() || !a.TryEnter() {
		t.Fatal("limiter refused below its limit")
	}
	if a.TryEnter() {
		t.Fatal("limiter admitted past its limit")
	}
	if a.InFlight() != 2 || a.Peak() != 2 || a.Admitted() != 2 || a.Shed() != 1 {
		t.Fatalf("counters = inflight %d peak %d admitted %d shed %d",
			a.InFlight(), a.Peak(), a.Admitted(), a.Shed())
	}
	a.Release()
	if !a.TryEnter() {
		t.Fatal("limiter refused after a release")
	}
	a.Release()
	a.Release()
	if a.InFlight() != 0 {
		t.Fatalf("inflight = %d after releasing everything", a.InFlight())
	}
}

func TestAdmissionUnlimitedNeverSheds(t *testing.T) {
	a := NewAdmission(0)
	for i := 0; i < 100; i++ {
		if !a.TryEnter() {
			t.Fatal("unlimited limiter shed")
		}
	}
	if a.Shed() != 0 || a.Peak() != 100 {
		t.Fatalf("shed %d peak %d", a.Shed(), a.Peak())
	}
}

// The failed-entry path must fully undo its increment even under races —
// otherwise sheds leak phantom in-flight slots and the limiter wedges shut.
func TestAdmissionConcurrentNoLeak(t *testing.T) {
	a := NewAdmission(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if a.TryEnter() {
					a.Release()
				}
			}
		}()
	}
	wg.Wait()
	if a.InFlight() != 0 {
		t.Fatalf("inflight = %d after all goroutines released", a.InFlight())
	}
	if a.Peak() > 4 {
		t.Fatalf("peak = %d past limit 4", a.Peak())
	}
	if a.Admitted()+a.Shed() != 8000 {
		t.Fatalf("admitted %d + shed %d != 8000 attempts", a.Admitted(), a.Shed())
	}
}

// An attached service sheds file operations with StatusBusy at the limit
// while the observability surface keeps working.
func TestServiceShedsAtLimit(t *testing.T) {
	svc, _ := newService(t)
	adm := NewAdmission(1)
	adm.SetManualRelease(true) // hold the single token ourselves
	svc.AttachAdmission(adm)

	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("fits"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("first create status = %v", rep.Status)
	}
	c := rep.Cap

	// The token is still held: the next file operation must be shed...
	rep, _ = call(svc, rpc.Header{Command: CmdRead, Cap: c}, nil)
	if rep.Status != rpc.StatusBusy {
		t.Fatalf("read at limit status = %v, want StatusBusy", rep.Status)
	}
	if adm.Shed() != 1 {
		t.Fatalf("shed counter = %d, want 1", adm.Shed())
	}
	// ...but maintenance commands bypass the limiter.
	rep, _ = call(svc, rpc.Header{Command: CmdStat}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("stat under full limiter status = %v", rep.Status)
	}

	adm.Release()
	rep, _ = call(svc, rpc.Header{Command: CmdRead, Cap: c}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("read after release status = %v", rep.Status)
	}
	adm.Release()
	if adm.InFlight() != 0 {
		t.Fatalf("inflight = %d", adm.InFlight())
	}
}

// In the default (non-manual) mode a token spans exactly one handler call,
// so sequential requests never shed even at limit 1.
func TestServiceAutoReleaseSequential(t *testing.T) {
	svc, _ := newService(t)
	adm := NewAdmission(1)
	svc.AttachAdmission(adm)

	var c struct{ cap rpc.Header }
	for i := 0; i < 5; i++ {
		rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("again and again"))
		if rep.Status != rpc.StatusOK {
			t.Fatalf("create %d status = %v", i, rep.Status)
		}
		c.cap = rep
	}
	if adm.Shed() != 0 || adm.InFlight() != 0 || adm.Peak() != 1 {
		t.Fatalf("shed %d inflight %d peak %d; want 0/0/1",
			adm.Shed(), adm.InFlight(), adm.Peak())
	}
	if adm.Admitted() != 5 {
		t.Fatalf("admitted = %d, want 5", adm.Admitted())
	}
}

func TestAdmissionMetricsRegistered(t *testing.T) {
	reg := stats.NewRegistry()
	a := NewAdmission(7)
	a.AttachMetrics(reg)
	a.TryEnter()
	snap := reg.Snapshot()
	want := map[string]int64{
		"rpc.admission_limit":    7,
		"rpc.admission_inflight": 1,
		"rpc.admission_peak":     1,
		"rpc.admission_admitted": 1,
		"rpc.admission_shed":     0,
	}
	for key, val := range want {
		got, ok := snap.Gauges[key]
		if !ok {
			t.Fatalf("gauge %q not in snapshot", key)
		}
		if got != val {
			t.Errorf("gauge %q = %d, want %d", key, got, val)
		}
	}
}
