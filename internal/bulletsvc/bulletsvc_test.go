package bulletsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"bulletfs/internal/bullet"
	"bulletfs/internal/cache"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
)

func newService(t *testing.T) (*Service, *bullet.Server) {
	t.Helper()
	devs := make([]disk.Device, 2)
	for i := range devs {
		mem, err := disk.NewMem(512, 4096)
		if err != nil {
			t.Fatalf("NewMem: %v", err)
		}
		devs[i] = mem
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
	t.Cleanup(eng.Sync)
	return New(eng), eng
}

// call runs one transaction through the dispatch every server runs: svc
// registered on a Mux, driven through the in-process transport (the path
// simnet and the benchmarks take).
func call(svc *Service, req rpc.Header, payload []byte) (rpc.Header, []byte) {
	mux := rpc.NewMux(0)
	svc.Register(mux)
	h, body, err := rpc.NewLocal(mux).Trans(svc.engine.Port(), req, payload)
	if err != nil {
		panic(err) // the port is registered; Local has no other transport error
	}
	return h, body
}

func TestHandleCreateSizeReadDelete(t *testing.T) {
	svc, _ := newService(t)
	data := []byte("protocol-level round trip")

	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, data)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create status = %v", rep.Status)
	}
	c := rep.Cap

	rep, _ = call(svc, rpc.Header{Command: CmdSize, Cap: c}, nil)
	if rep.Status != rpc.StatusOK || rep.Arg != uint64(len(data)) {
		t.Fatalf("size reply = %+v", rep)
	}

	rep, body := call(svc, rpc.Header{Command: CmdRead, Cap: c}, nil)
	if rep.Status != rpc.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("read reply = %+v %q", rep, body)
	}

	rep, _ = call(svc, rpc.Header{Command: CmdDelete, Cap: c}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("delete status = %v", rep.Status)
	}
	rep, _ = call(svc, rpc.Header{Command: CmdRead, Cap: c}, nil)
	if rep.Status != rpc.StatusNoSuchObject {
		t.Fatalf("read-after-delete status = %v", rep.Status)
	}
}

func TestHandleStatusMapping(t *testing.T) {
	svc, eng := newService(t)
	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 99}, []byte("x"))
	if rep.Status != rpc.StatusBadPFactor {
		t.Fatalf("bad p-factor status = %v", rep.Status)
	}

	rep, _ = call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("x"))
	c := rep.Cap
	forged := c
	forged.Check[0] ^= 1
	rep, _ = call(svc, rpc.Header{Command: CmdRead, Cap: forged}, nil)
	if rep.Status != rpc.StatusBadCheck {
		t.Fatalf("forged status = %v", rep.Status)
	}

	readOnly, err := capability.Restrict(c, capability.RightRead)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	rep, _ = call(svc, rpc.Header{Command: CmdDelete, Cap: readOnly}, nil)
	if rep.Status != rpc.StatusBadRights {
		t.Fatalf("rights status = %v", rep.Status)
	}

	rep, _ = call(svc, rpc.Header{Command: CmdReadRange, Cap: c, Arg: ^uint64(0)}, nil)
	if rep.Status != rpc.StatusBadOffset {
		t.Fatalf("offset status = %v", rep.Status)
	}

	rep, _ = call(svc, rpc.Header{Command: 9999}, nil)
	if rep.Status != rpc.StatusBadCommand {
		t.Fatalf("bad command status = %v", rep.Status)
	}

	big := make([]byte, eng.MaxFileSize()+1)
	rep, _ = call(svc, rpc.Header{Command: CmdCreate, Arg: 1}, big)
	if rep.Status != rpc.StatusTooLarge {
		t.Fatalf("too-large status = %v", rep.Status)
	}
}

func TestHandleModifyAppendReadRange(t *testing.T) {
	svc, _ := newService(t)
	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 2}, []byte("0123456789"))
	c := rep.Cap

	rep, _ = call(svc, rpc.Header{
		Command: CmdModify, Cap: c, Arg: 2, Arg2: PackModifyArg2(-1, 2),
	}, []byte("XY"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("modify status = %v", rep.Status)
	}
	rep2, body := call(svc, rpc.Header{Command: CmdRead, Cap: rep.Cap}, nil)
	if rep2.Status != rpc.StatusOK || string(body) != "01XY456789" {
		t.Fatalf("modified = %q", body)
	}

	rep, _ = call(svc, rpc.Header{Command: CmdAppend, Cap: c, Arg: 2}, []byte("ab"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("append status = %v", rep.Status)
	}
	_, body = call(svc, rpc.Header{Command: CmdRead, Cap: rep.Cap}, nil)
	if string(body) != "0123456789ab" {
		t.Fatalf("appended = %q", body)
	}

	rep, body = call(svc, rpc.Header{Command: CmdReadRange, Cap: c, Arg: 3, Arg2: 4}, nil)
	if rep.Status != rpc.StatusOK || string(body) != "3456" {
		t.Fatalf("range = %v %q", rep.Status, body)
	}
	// Arg2 all-ones is "to the end of the file" (docs/PROTOCOL.md).
	rep, body = call(svc, rpc.Header{Command: CmdReadRange, Cap: c, Arg: 7, Arg2: ^uint64(0)}, nil)
	if rep.Status != rpc.StatusOK || string(body) != "789" {
		t.Fatalf("range to end = %v %q, want OK \"789\"", rep.Status, body)
	}
}

func TestHandleStatAndAdmin(t *testing.T) {
	svc, _ := newService(t)
	call(svc, rpc.Header{Command: CmdCreate, Arg: 0}, []byte("x")) //nolint:errcheck

	rep, _ := call(svc, rpc.Header{Command: CmdSync}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("sync status = %v", rep.Status)
	}
	rep, body := call(svc, rpc.Header{Command: CmdStat}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("stat status = %v", rep.Status)
	}
	var st ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("stat payload: %v", err)
	}
	if st.Engine.Creates != 1 || st.LiveFiles != 1 {
		t.Fatalf("stats = %+v", st)
	}
	rep, _ = call(svc, rpc.Header{Command: CmdCompactDisk}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("compact-disk status = %v", rep.Status)
	}
}

func TestStatusErrorRoundTrip(t *testing.T) {
	// Every engine error must map to a status that maps back to a
	// matching error value.
	cases := []error{
		bullet.ErrNoSuchFile,
		bullet.ErrTooLarge,
		bullet.ErrDiskFull,
		bullet.ErrBadPFactor,
		bullet.ErrBadOffset,
		capability.ErrBadCheck,
		capability.ErrBadRights,
		cache.ErrTooLarge,
	}
	for _, in := range cases {
		st := StatusOf(in)
		if st == rpc.StatusOK || st == rpc.StatusInternal {
			t.Errorf("StatusOf(%v) = %v", in, st)
			continue
		}
		out := ErrorOf(st)
		// cache.ErrTooLarge intentionally maps onto bullet.ErrTooLarge.
		if errors.Is(in, cache.ErrTooLarge) {
			if !errors.Is(out, bullet.ErrTooLarge) {
				t.Errorf("ErrorOf(StatusOf(cache.ErrTooLarge)) = %v", out)
			}
			continue
		}
		if !errors.Is(out, in) {
			t.Errorf("round trip %v -> %v -> %v", in, st, out)
		}
	}
	if StatusOf(nil) != rpc.StatusOK || ErrorOf(rpc.StatusOK) != nil {
		t.Error("nil/OK round trip broken")
	}
	if StatusOf(errors.New("mystery")) != rpc.StatusInternal {
		t.Error("unknown error not mapped to internal")
	}
	if ErrorOf(rpc.StatusInternal) == nil {
		t.Error("internal status mapped to nil error")
	}
}

func TestPackModifyArg2Bounds(t *testing.T) {
	// The pack format must survive the extremes the protocol allows.
	for _, size := range []int64{-1, 0, 1, 1 << 31, 1<<47 - 2} {
		for _, pf := range []int{0, 1, 2, 7, 65535} {
			gs, gp := UnpackModifyArg2(PackModifyArg2(size, pf))
			if gs != size || gp != pf {
				t.Fatalf("pack(%d,%d) round-tripped to (%d,%d)", size, pf, gs, gp)
			}
		}
	}
}

func TestRegisterRoutesByEnginePort(t *testing.T) {
	svc, eng := newService(t)
	mux := rpc.NewMux(0)
	svc.Register(mux)
	tr := rpc.NewLocal(mux)
	rep, _, err := tr.Trans(eng.Port(), rpc.Header{Command: CmdStat}, nil)
	if err != nil || rep.Status != rpc.StatusOK {
		t.Fatalf("Trans = %v, %v", rep.Status, err)
	}
	if _, _, err := tr.Trans(capability.PortFromString("other"), rpc.Header{}, nil); !errors.Is(err, rpc.ErrNoServer) {
		t.Fatalf("unknown port err = %v", err)
	}
}

func TestHandleStats(t *testing.T) {
	svc, _ := newService(t)
	rep, _ := call(svc, rpc.Header{Command: CmdCreate, Arg: 1}, []byte("stats me"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("create status = %v", rep.Status)
	}
	c := rep.Cap

	rep, body := call(svc, rpc.Header{Command: CmdStats, Cap: c}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("stats status = %v", rep.Status)
	}
	var snap stats.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("stats payload: %v", err)
	}
	if snap.Counters["bullet.creates"] != 1 {
		t.Errorf("bullet.creates = %d, want 1", snap.Counters["bullet.creates"])
	}

	// Without the read right, the query is refused.
	delOnly, err := capability.Restrict(c, capability.RightDelete)
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	rep, _ = call(svc, rpc.Header{Command: CmdStats, Cap: delOnly}, nil)
	if rep.Status != rpc.StatusBadRights {
		t.Errorf("stats with delete-only cap: status = %v, want StatusBadRights", rep.Status)
	}
}

// TestCommandName pins the command table: the 15 live codes and their
// names, and the retired codes (11, COMPACT-CACHE; 16-19, the
// create-session commands), which have no name and answer
// StatusBadCommand over TCP and over rpc.Local like any unknown code.
func TestCommandName(t *testing.T) {
	known := map[uint32]string{
		CmdCreate: "create", CmdSize: "size", CmdRead: "read",
		CmdDelete: "delete", CmdModify: "modify", CmdAppend: "append",
		CmdReadRange: "readrange", CmdStat: "stat", CmdSync: "sync",
		CmdCompactDisk: "compactdisk", CmdStats: "stats",
		CmdTrace: "trace", CmdSalvage: "salvage", CmdReadStream: "readstream", CmdWatch: "watch",
		11: "", 16: "", 17: "", 18: "", 19: "", 999: "",
	}
	svc, eng := newService(t)
	mux := rpc.NewMux(0)
	svc.Register(mux)
	srv := rpc.NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck // test cleanup
	tcp := rpc.NewTCPTransport(rpc.StaticResolver(map[capability.Port]string{eng.Port(): addr}), 10*time.Second)
	t.Cleanup(func() { tcp.Close() }) //nolint:errcheck // test cleanup
	transports := map[string]rpc.Transport{"tcp": tcp, "local": rpc.NewLocal(mux)}

	seen := make(map[string]bool)
	live := 0
	for cmd, want := range known {
		got := CommandName(cmd)
		if got != want {
			t.Errorf("CommandName(%d) = %q, want %q", cmd, got, want)
		}
		if want != "" {
			live++
			if seen[got] {
				t.Errorf("duplicate command name %q", got)
			}
			seen[got] = true
			continue
		}
		for name, tr := range transports {
			rep, _, err := tr.Trans(eng.Port(), rpc.Header{Command: cmd, Arg: 1}, []byte("payload"))
			if err != nil || rep.Status != rpc.StatusBadCommand {
				t.Errorf("command %d over %s = %v, %v; want StatusBadCommand", cmd, name, rep.Status, err)
			}
		}
	}
	if live != 15 {
		t.Errorf("%d live command codes, want 15", live)
	}
}
