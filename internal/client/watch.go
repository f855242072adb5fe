package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"bulletfs/internal/bulletsvc"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
	"bulletfs/internal/stats"
)

// ErrWatchUnbounded is returned by Watch when max is 0 (stream forever)
// but the transport is not an rpc.Caller: a Trans-only transport delivers
// the whole stream as one reply, so an unbounded watch would never return.
var ErrWatchUnbounded = errors.New("bullet client: unbounded watch needs a streaming transport")

// Watch subscribes to the server's telemetry stream: fn is called once
// per collector tick with that window's stats.Update. max bounds the
// subscription (0 = until the server or connection ends the stream;
// only valid on an rpc.Caller). fn returning an error stops the watch
// client-side and returns that error.
//
// Like Stats, any capability with the read right admits the watcher.
func (c *Client) Watch(cp capability.Capability, max uint64, fn func(stats.Update) error) error {
	if _, ok := c.tr.(rpc.Caller); !ok && max == 0 {
		return ErrWatchUnbounded
	}
	req := rpc.Header{Command: bulletsvc.CmdWatch, Cap: cp, Arg: max}
	var fnErr error
	rep, _, err := rpc.Call(c.tr, cp.Port, rpc.CallOpts{}, req, nil, func(h rpc.Header, data []byte, last bool) error {
		if fnErr != nil || h.Status != rpc.StatusOK {
			return nil
		}
		// One update per frame when the transport streams; every update in
		// one frame when it assembles them.
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var u stats.Update
			if err := dec.Decode(&u); err != nil {
				if !errors.Is(err, io.EOF) {
					fnErr = fmt.Errorf("bullet client: watch frame: %w", err)
				}
				return nil
			}
			if err := fn(u); err != nil {
				// Returning the error from the sink aborts the stream read;
				// the transport drops the connection, which is what tells
				// the server this watcher is gone.
				fnErr = err
				return err
			}
		}
	})
	if fnErr != nil {
		return fnErr
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrTransport, err)
	}
	if rep.Status != rpc.StatusOK {
		return fmt.Errorf("bullet client: watch rejected: %w", bulletsvc.ErrorOf(rep.Status))
	}
	return nil
}
