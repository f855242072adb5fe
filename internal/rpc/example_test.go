package rpc_test

import (
	"fmt"

	"bulletfs/internal/capability"
	"bulletfs/internal/rpc"
)

// A transaction against a registered port: the Amoeba trans() primitive.
func ExampleMux() {
	mux := rpc.NewMux(0)
	port := capability.PortFromString("adder")
	mux.Register(port, func(req rpc.Header, payload []byte) (rpc.Header, []byte) {
		return rpc.Header{Status: rpc.StatusOK, Arg: req.Arg + req.Arg2}, nil
	})

	tr := rpc.NewLocal(mux)
	rep, _, _ := tr.Trans(port, rpc.Header{Arg: 40, Arg2: 2}, nil)
	fmt.Println(rep.Arg)
	// Output: 42
}

// At-most-once execution: a retried transaction (same transaction ID)
// replays the cached reply instead of re-running the handler.
func ExampleMux_duplicateSuppression() {
	mux := rpc.NewMux(0)
	port := capability.PortFromString("counter")
	calls := 0
	mux.Register(port, func(rpc.Header, []byte) (rpc.Header, []byte) {
		calls++
		return rpc.ReplyOK(), nil
	})

	tr := rpc.NewLocal(mux)
	opts := rpc.CallOpts{TxID: 12345}
	tr.Call(port, opts, rpc.Header{}, nil, nil) //nolint:errcheck
	tr.Call(port, opts, rpc.Header{}, nil, nil) //nolint:errcheck
	fmt.Println("handler ran", calls, "time(s)")
	// Output: handler ran 1 time(s)
}
