package client

import (
	"fmt"
	"io"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
)

// Streaming stubs: READSTREAM downloads (a large file as a sequence of
// ranged frames, written straight to an io.Writer) and session creates
// (a large or incrementally produced file uploaded in chunks and
// committed as ONE ordinary create on the server).

// defaultUploadChunk is the CreateFrom chunk size when the caller passes
// chunkSize <= 0. It stays comfortably under rpc.MaxPayload.
const defaultUploadChunk = 256 << 10

// ReadStream streams the file from offset onward into w and returns the
// number of payload bytes written. On a streaming transport (TCP, Local)
// the chunks arrive as separate frames and are written as they land — the
// client never buffers the whole file; a Trans-only transport delivers
// them assembled into one frame, written in a single call. The
// client-side file cache is bypassed: streaming exists for files too
// large to buffer.
func (c *Client) ReadStream(cp capability.Capability, offset int64, w io.Writer) (int64, error) {
	req := rpc.Header{Command: bulletsvc.CmdReadStream, Cap: cp, Arg: uint64(offset)}
	var written int64
	var werr error
	rep, _, err := rpc.Call(c.tr, cp.Port, rpc.CallOpts{}, req, nil, func(h rpc.Header, data []byte, last bool) error {
		if h.Status != rpc.StatusOK || len(data) == 0 {
			return nil
		}
		n, err := w.Write(data)
		written += int64(n)
		if err != nil && werr == nil {
			// Remember the writer's error but keep draining frames so the
			// connection stays usable for the next transaction.
			werr = err
		}
		return nil
	})
	if err != nil {
		return written, fmt.Errorf("%w: %w", ErrTransport, err)
	}
	if rep.Status != rpc.StatusOK {
		return written, fmt.Errorf("bullet client: readstream rejected: %w", bulletsvc.ErrorOf(rep.Status))
	}
	if werr != nil {
		return written, fmt.Errorf("bullet client: readstream sink: %w", werr)
	}
	return written, nil
}

// CreateFrom uploads r's contents in chunks through a create session and
// commits them as one immutable file, returning its owner capability.
// chunkSize <= 0 picks a default. The file lands in a single contiguous
// extent with the usual checksum and replication semantics — exactly as
// if it had been sent as one CREATE — so CreateFrom is how clients store
// files larger than one request payload. On any error after the session
// opens, the session is aborted (best effort) so the server's buffer is
// freed immediately rather than idling out.
func (c *Client) CreateFrom(port capability.Port, r io.Reader, chunkSize int, pfactor int) (capability.Capability, error) {
	if chunkSize <= 0 {
		chunkSize = defaultUploadChunk
	}
	if chunkSize > rpc.MaxPayload {
		chunkSize = rpc.MaxPayload
	}
	rep, _, err := c.call(port, rpc.Header{Command: bulletsvc.CmdCreateStart}, nil)
	if err != nil {
		return capability.Capability{}, err
	}
	id := rep.Arg

	abort := func() {
		_, _, _ = c.call(port, rpc.Header{Command: bulletsvc.CmdCreateAbort, Arg: id}, nil)
	}

	buf := make([]byte, chunkSize)
	var off int64
	for {
		n, rerr := io.ReadFull(r, buf)
		if n > 0 {
			req := rpc.Header{Command: bulletsvc.CmdCreateWrite, Arg: id, Arg2: uint64(off)}
			if _, _, err := c.call(port, req, buf[:n]); err != nil {
				abort()
				return capability.Capability{}, err
			}
			off += int64(n)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			break
		}
		if rerr != nil {
			abort()
			return capability.Capability{}, fmt.Errorf("bullet client: reading upload source: %w", rerr)
		}
	}

	rep, _, err = c.call(port, rpc.Header{Command: bulletsvc.CmdCreateCommit, Arg: id, Arg2: uint64(pfactor)}, nil)
	if err != nil {
		abort()
		return capability.Capability{}, err
	}
	return rep.Cap, nil
}
