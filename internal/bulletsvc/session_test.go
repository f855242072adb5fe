package bulletsvc

import (
	"bytes"
	"testing"

	"bulletfs/internal/rpc"
)

func startSession(t *testing.T, svc *Service) uint64 {
	t.Helper()
	rep, _ := call(svc, rpc.Header{Command: CmdCreateStart}, nil)
	if rep.Status != rpc.StatusOK || rep.Arg == 0 {
		t.Fatalf("CreateStart reply = %+v", rep)
	}
	return rep.Arg
}

func TestCreateSessionRoundTrip(t *testing.T) {
	svc, _ := newService(t)
	id := startSession(t, svc)

	chunks := [][]byte{[]byte("the whole "), []byte("file, "), []byte("in pieces")}
	var off uint64
	for _, ch := range chunks {
		rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: off}, ch)
		if rep.Status != rpc.StatusOK {
			t.Fatalf("CreateWrite at %d: %v", off, rep.Status)
		}
		off += uint64(len(ch))
	}
	rep, _ := call(svc, rpc.Header{Command: CmdCreateCommit, Arg: id, Arg2: 1}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("CreateCommit: %v", rep.Status)
	}
	want := []byte("the whole file, in pieces")
	got, body := call(svc, rpc.Header{Command: CmdRead, Cap: rep.Cap}, nil)
	if got.Status != rpc.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("Read after commit = %v %q, want %q", got.Status, body, want)
	}

	// The committed session is gone: a second commit is NotFound, not a
	// second file.
	rep, _ = call(svc, rpc.Header{Command: CmdCreateCommit, Arg: id, Arg2: 1}, nil)
	if rep.Status != rpc.StatusNotFound {
		t.Fatalf("recommit status = %v, want NotFound", rep.Status)
	}
}

func TestCreateSessionWriteSemantics(t *testing.T) {
	svc, _ := newService(t)
	id := startSession(t, svc)

	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: 0}, []byte("abcd")); rep.Status != rpc.StatusOK {
		t.Fatalf("first write: %v", rep.Status)
	}
	// A duplicate of an absorbed chunk (retry whose reply was lost) is
	// acknowledged as a no-op.
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: 0}, []byte("abcd")); rep.Status != rpc.StatusOK {
		t.Fatalf("duplicate write: %v", rep.Status)
	}
	// A gap is rejected.
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: 100}, []byte("x")); rep.Status != rpc.StatusBadOffset {
		t.Fatalf("gap write status = %v, want BadOffset", rep.Status)
	}
	// The duplicate did not double the buffer.
	rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: 4}, []byte("efgh"))
	if rep.Status != rpc.StatusOK {
		t.Fatalf("continuation write: %v", rep.Status)
	}
	rep, _ = call(svc, rpc.Header{Command: CmdCreateCommit, Arg: id, Arg2: 0}, nil)
	if rep.Status != rpc.StatusOK {
		t.Fatalf("commit: %v", rep.Status)
	}
	if got, body := call(svc, rpc.Header{Command: CmdRead, Cap: rep.Cap}, nil); got.Status != rpc.StatusOK || string(body) != "abcdefgh" {
		t.Fatalf("content = %q, want abcdefgh", body)
	}

	// Unknown session: write and commit both NotFound; abort is always OK.
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: 0xdead, Arg2: 0}, []byte("x")); rep.Status != rpc.StatusNotFound {
		t.Fatalf("unknown-session write = %v", rep.Status)
	}
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateAbort, Arg: 0xdead}, nil); rep.Status != rpc.StatusOK {
		t.Fatalf("unknown-session abort = %v", rep.Status)
	}
}

func TestCreateSessionAbortFreesBudget(t *testing.T) {
	svc, _ := newService(t)
	id := startSession(t, svc)
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: 0}, []byte("buffered")); rep.Status != rpc.StatusOK {
		t.Fatal("write failed")
	}
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateAbort, Arg: id}, nil); rep.Status != rpc.StatusOK {
		t.Fatal("abort failed")
	}
	svc.sess.mu.Lock()
	buffered, open := svc.sess.buffered, len(svc.sess.sessions)
	svc.sess.mu.Unlock()
	if buffered != 0 || open != 0 {
		t.Fatalf("after abort: buffered = %d, sessions = %d; want 0, 0", buffered, open)
	}
	// Aborting again is idempotent.
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateAbort, Arg: id}, nil); rep.Status != rpc.StatusOK {
		t.Fatal("re-abort failed")
	}
}

func TestCreateSessionBudgets(t *testing.T) {
	svc, eng := newService(t)
	max := eng.MaxFileSize()

	// Per-session cap: a session may not outgrow the largest storable file.
	id := startSession(t, svc)
	big := make([]byte, max)
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: 0}, big); rep.Status != rpc.StatusOK {
		t.Fatalf("max-size write: %v", rep.Status)
	}
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id, Arg2: uint64(max)}, []byte("x")); rep.Status != rpc.StatusTooLarge {
		t.Fatalf("overflow write = %v, want TooLarge", rep.Status)
	}

	// Total buffered cap (2x max across all sessions): a third session's
	// write past the budget is shed with Busy, and an abort frees room.
	id2 := startSession(t, svc)
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id2, Arg2: 0}, big); rep.Status != rpc.StatusOK {
		t.Fatalf("second max-size write: %v", rep.Status)
	}
	id3 := startSession(t, svc)
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id3, Arg2: 0}, []byte("x")); rep.Status != rpc.StatusBusy {
		t.Fatalf("over-budget write = %v, want Busy", rep.Status)
	}
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateAbort, Arg: id}, nil); rep.Status != rpc.StatusOK {
		t.Fatal("abort failed")
	}
	if rep, _ := call(svc, rpc.Header{Command: CmdCreateWrite, Arg: id3, Arg2: 0}, []byte("x")); rep.Status != rpc.StatusOK {
		t.Fatalf("write after freeing budget = %v", rep.Status)
	}
}

func TestCreateSessionLimit(t *testing.T) {
	svc, _ := newService(t)
	for i := 0; i < maxCreateSessions; i++ {
		startSession(t, svc)
	}
	rep, _ := call(svc, rpc.Header{Command: CmdCreateStart}, nil)
	if rep.Status != rpc.StatusBusy {
		t.Fatalf("session %d start = %v, want Busy", maxCreateSessions, rep.Status)
	}
}
