package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"

	"bulletfs/internal/capability"
)

// FuzzDecodeHeader hardens the transaction header decoder: arbitrary
// bytes arrive from the network before any validation.
func FuzzDecodeHeader(f *testing.F) {
	valid := Header{
		Cap:     capability.Owner(capability.PortFromString("f"), 7, capability.Random{1}),
		Command: 3, Status: StatusOK, Arg: 9, Arg2: 10,
	}.Encode(nil)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAA}, HeaderLen))
	f.Add(bytes.Repeat([]byte{0x00}, HeaderLen+5))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, rest, err := DecodeHeader(data)
		if err != nil {
			return
		}
		if len(rest) != len(data)-HeaderLen {
			t.Fatalf("rest = %d bytes of %d", len(rest), len(data))
		}
		// Decoded headers re-encode to the same prefix.
		out := h.Encode(nil)
		if !bytes.Equal(out, data[:HeaderLen]) {
			t.Fatalf("round trip changed bytes")
		}
	})
}

// FuzzReadFrame hardens the TCP frame reader against arbitrary streams,
// including v2 frames whose prologue extension may hold arbitrary TLVs.
func FuzzReadFrame(f *testing.F) {
	var good bytes.Buffer
	_ = writeFrame(&good, magicRequest, 1, capability.Port{1}, Header{Command: 2}, []byte("payload"))
	f.Add(good.Bytes())
	var traced bytes.Buffer
	_ = writeFrameExt(&traced, magicRequest, 1, 0xfeed, 0, capability.Port{1}, Header{Command: 2}, []byte("payload"))
	f.Add(traced.Bytes())
	f.Add([]byte("garbage stream"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fixed [prologueLen + extScratchLen]byte
		txid, traceID, _, port, h, payload, _, err := readFrame(bytes.NewReader(data), magicRequest, fixed[:])
		if err != nil {
			return
		}
		// A frame that parses must survive a semantic round trip. Byte
		// equality only holds for v1 frames and v2 frames whose extension
		// is exactly the fields this implementation emits, so re-read the
		// re-encoding instead of comparing raw bytes.
		var out bytes.Buffer
		if err := writeFrameExt(&out, magicRequest, txid, traceID, 0, port, h, payload); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		txid2, traceID2, _, port2, h2, payload2, _, err := readFrame(bytes.NewReader(out.Bytes()), magicRequest, fixed[:])
		if err != nil {
			t.Fatalf("re-read: %v", err)
		}
		if txid2 != txid || traceID2 != traceID || port2 != port || h2 != h || !bytes.Equal(payload2, payload) {
			t.Fatal("round trip changed frame fields")
		}
		if binary.BigEndian.Uint32(data[0:4]) == magicRequest {
			// v1 frames still round-trip byte-for-byte.
			if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
				t.Fatal("v1 round trip changed frame bytes")
			}
		}
	})
}
