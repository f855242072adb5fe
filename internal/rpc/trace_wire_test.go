package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/trace"
)

// TestTracedFrameRoundTrip pins the v2 wire format: prologue, extension
// TLV, payload.
func TestTracedFrameRoundTrip(t *testing.T) {
	port := capability.PortFromString("trace-wire")
	var buf bytes.Buffer
	if err := writeFrameExt(&buf, magicRequest, 7, 0xdeadbeefcafe, 0, port, Header{Command: 3, Arg: 9}, []byte("hi")); err != nil {
		t.Fatalf("writeFrameExt: %v", err)
	}
	if got := binary.BigEndian.Uint32(buf.Bytes()[0:4]); got != magicRequestV2 {
		t.Fatalf("traced frame magic %08x, want %08x", got, magicRequestV2)
	}
	var fixed [prologueLen + extScratchLen]byte
	txid, traceID, _, gotPort, h, payload, _, err := readFrame(bytes.NewReader(buf.Bytes()), magicRequest, fixed[:])
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if txid != 7 || traceID != 0xdeadbeefcafe || gotPort != port || h.Command != 3 || h.Arg != 9 || string(payload) != "hi" {
		t.Fatalf("round trip lost fields: txid=%d traceID=%x cmd=%d payload=%q", txid, traceID, h.Command, payload)
	}
}

// TestTracedFrameZeroIDStaysV1 pins the interop contract: no trace ID,
// no version bump — old servers never see a v2 frame from an untraced
// client.
func TestTracedFrameZeroIDStaysV1(t *testing.T) {
	var v1, v2 bytes.Buffer
	port := capability.Port{1}
	if err := writeFrame(&v1, magicRequest, 5, port, Header{Command: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := writeFrameExt(&v2, magicRequest, 5, 0, 0, port, Header{Command: 2}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v1.Bytes(), v2.Bytes()) {
		t.Fatal("traceID 0 changed the frame bytes")
	}
}

// TestUnknownExtensionFieldsSkipped proves a v2 receiver tolerates TLV
// types it has never heard of — before, after, and instead of the trace
// ID — so the extension can grow without a version bump.
func TestUnknownExtensionFieldsSkipped(t *testing.T) {
	port := capability.Port{9}
	h := Header{Command: 4}

	build := func(ext []byte, paylen int) []byte {
		var buf bytes.Buffer
		pro := make([]byte, prologueLen)
		encodePrologue(pro, magicRequestV2, 11, port, h, paylen)
		buf.Write(pro)
		var two [2]byte
		binary.BigEndian.PutUint16(two[:], uint16(len(ext)))
		buf.Write(two[:])
		buf.Write(ext)
		buf.Write(bytes.Repeat([]byte{'x'}, paylen))
		return buf.Bytes()
	}

	traceTLV := make([]byte, 10)
	traceTLV[0] = extTypeTraceID
	traceTLV[1] = 8
	binary.BigEndian.PutUint64(traceTLV[2:], 0x1234)

	cases := []struct {
		name   string
		ext    []byte
		wantID uint64
	}{
		{"unknown-before-known", append([]byte{0x7f, 3, 1, 2, 3}, traceTLV...), 0x1234},
		{"unknown-after-known", append(append([]byte{}, traceTLV...), 0x7f, 2, 9, 9), 0x1234},
		{"only-unknown", []byte{0x7f, 4, 1, 2, 3, 4}, 0},
		{"empty-ext", nil, 0},
		{"known-type-wrong-len", []byte{extTypeTraceID, 2, 1, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fixed [prologueLen + extScratchLen]byte
			_, traceID, _, _, gotH, payload, _, err := readFrame(bytes.NewReader(build(tc.ext, 3)), magicRequest, fixed[:])
			if err != nil {
				t.Fatalf("readFrame: %v", err)
			}
			if traceID != tc.wantID {
				t.Fatalf("traceID = %#x, want %#x", traceID, tc.wantID)
			}
			if gotH != h || string(payload) != "xxx" {
				t.Fatal("header/payload corrupted by extension parsing")
			}
		})
	}
}

// TestTruncatedExtensionRejected: a TLV that overruns the declared
// extension length is a framing error, not a silent misparse.
func TestTruncatedExtensionRejected(t *testing.T) {
	port := capability.Port{9}
	pro := make([]byte, prologueLen)
	encodePrologue(pro, magicRequestV2, 1, port, Header{}, 0)
	var buf bytes.Buffer
	buf.Write(pro)
	var two [2]byte
	binary.BigEndian.PutUint16(two[:], 3)
	buf.Write(two[:])
	buf.Write([]byte{extTypeTraceID, 8, 0x01}) // claims 8 value bytes, has 1
	var fixed [prologueLen + extScratchLen]byte
	_, _, _, _, _, _, _, err := readFrame(bytes.NewReader(buf.Bytes()), magicRequest, fixed[:])
	if err == nil {
		t.Fatal("truncated TLV accepted")
	}
}

// TestLargeExtensionBeyondScratch: extensions bigger than the
// connection's scratch buffer still parse (one-shot allocation path).
func TestLargeExtensionBeyondScratch(t *testing.T) {
	port := capability.Port{3}
	pro := make([]byte, prologueLen)
	encodePrologue(pro, magicRequestV2, 1, port, Header{Command: 8}, 0)
	ext := make([]byte, 0, extScratchLen+40)
	for len(ext) < extScratchLen+20 {
		ext = append(ext, 0x70, 10)
		ext = append(ext, make([]byte, 10)...)
	}
	tlv := make([]byte, 10)
	tlv[0] = extTypeTraceID
	tlv[1] = 8
	binary.BigEndian.PutUint64(tlv[2:], 0xabc)
	ext = append(ext, tlv...)

	var buf bytes.Buffer
	buf.Write(pro)
	var two [2]byte
	binary.BigEndian.PutUint16(two[:], uint16(len(ext)))
	buf.Write(two[:])
	buf.Write(ext)
	var fixed [prologueLen + extScratchLen]byte
	_, traceID, _, _, _, _, _, err := readFrame(bytes.NewReader(buf.Bytes()), magicRequest, fixed[:])
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if traceID != 0xabc {
		t.Fatalf("traceID = %#x, want 0xabc", traceID)
	}
}

// TestUntracedRequestGetsLocalID: with a recorder attached, a v1 request
// is still recorded — under a server-assigned ID with the local bit set.
func TestUntracedRequestGetsLocalID(t *testing.T) {
	port := capability.PortFromString("local-id")
	mux := NewMux(0)
	rec := trace.NewRecorder(trace.WithCapacity(8, 8))
	mux.AttachRecorder(rec)
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		return ReplyOK(), nil
	})
	srv := NewTCPServer(mux)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer srv.Close()
	tr := NewTCPTransport(StaticResolver(map[capability.Port]string{port: addr}), 5*time.Second)
	defer tr.Close()
	if _, _, err := tr.Trans(port, Header{Command: 6}, nil); err != nil {
		t.Fatalf("Trans: %v", err)
	}
	traces := rec.Recent()
	if len(traces) != 1 {
		t.Fatalf("recorder has %d traces, want 1", len(traces))
	}
	if traces[0].ID&trace.LocalIDBit == 0 {
		t.Fatalf("server-assigned ID %#x lacks the local bit", traces[0].ID)
	}
}

// TestDispatchTraceDupReplayRecordsSpan: a duplicate transaction replays
// the cached reply and still leaves a root span in the trace.
func TestDispatchTraceDupReplayRecordsSpan(t *testing.T) {
	port := capability.Port{5}
	mux := NewMux(0)
	rec := trace.NewRecorder(trace.WithCapacity(8, 8))
	mux.AttachRecorder(rec)
	calls := 0
	mux.Register(port, func(req Header, payload []byte) (Header, []byte) {
		calls++
		return Header{Status: StatusOK, Arg: 42}, nil
	})
	tr := NewLocal(mux)
	const txid = 77
	if _, _, err := tr.Call(port, CallOpts{TxID: txid, TraceID: 1}, Header{Command: 3}, nil, nil); err != nil {
		t.Fatal(err)
	}
	rep, _, err := tr.Call(port, CallOpts{TxID: txid, TraceID: 2}, Header{Command: 3}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times, want 1 (at-most-once)", calls)
	}
	if rep.Arg != 42 {
		t.Fatalf("replayed reply Arg = %d, want 42", rep.Arg)
	}
	traces := rec.Recent()
	if len(traces) != 2 {
		t.Fatalf("recorder has %d traces, want 2 (original + replay)", len(traces))
	}
	for _, tr0 := range traces {
		if root := tr0.Root(); root == nil || root.Cmd != 3 {
			t.Fatalf("trace %#x missing root span", tr0.ID)
		}
	}
}
