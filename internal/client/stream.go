package client

import (
	"fmt"
	"io"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
)

// The streaming stub: READSTREAM downloads a large file as a sequence of
// ranged frames, written straight to an io.Writer. Uploads need no
// counterpart: one CREATE frame of any size up to rpc.MaxPayload is read
// on the server straight into the file's cache slot.

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
