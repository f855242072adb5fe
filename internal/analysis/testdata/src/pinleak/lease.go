// Leases: the second resource the pinleak pass tracks. An engine
// ReadLease wraps a pinned cache View for the zero-copy reply path;
// the same release-on-every-path rules apply, and the blessed handoff —
// rpc.Owned(lease.Bytes(), lease) — transfers the obligation to the RPC
// layer, which releases the lease after the socket write.
package pinleak

import (
	"io"

	"bulletfs/internal/bullet"
	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
)

var eng *bullet.Server
var cp capability.Capability

// LeaseHandoff is the intended zero-copy reply shape: the lease rides
// into rpc.Owned as a direct argument, so the RPC layer owns it now and
// no diagnostic fires (the true negative).
func LeaseHandoff(emit rpc.Emitter) {
	lease, err := eng.ReadView(nil, nil, cp, 0, -1)
	if err != nil {
		_ = emit(rpc.ReplyErr(rpc.StatusInternal), rpc.Plain(nil), true)
		return
	}
	_ = emit(rpc.ReplyOK(), rpc.Owned(lease.Bytes(), lease), true)
}

// LeaseReleasedOnAllPaths is the classic deferred shape; also clean.
func LeaseReleasedOnAllPaths() (int64, error) {
	lease, err := eng.ReadView(nil, nil, cp, 0, 16)
	if err != nil {
		return 0, err
	}
	defer lease.Release()
	return lease.Size(), nil
}

// LeaseLeakOnError releases the lease on the success path only: the
// writer's error return drops the pin, which would wedge cache
// compaction (the positive).
func LeaseLeakOnError(w io.Writer) error {
	lease, err := eng.ReadView(nil, nil, cp, 0, -1) // want `lease obtained from bullet.Server.ReadView is not released on every path`
	if err != nil {
		return err
	}
	if _, werr := w.Write(lease.Bytes()); werr != nil {
		return werr
	}
	lease.Release()
	return nil
}

// LeaseDropped discards the lease without binding it at all.
func LeaseDropped() {
	eng.ReadView(nil, nil, cp, 0, -1) // want `discards a lease that must be released`
}
