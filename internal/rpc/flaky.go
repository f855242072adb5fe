package rpc

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"bulletfs/internal/capability"
)

// Flaky wraps a Transport with deterministic fault injection for testing
// the retry/at-most-once machinery: a transaction can be "dropped" before
// reaching the server (request loss) or after executing (reply loss). Both
// surface to the caller as ErrDropped, but reply loss leaves the server's
// side effects in place — exactly the hazard duplicate suppression exists
// for.
type Flaky struct {
	inner   Transport
	mu      sync.Mutex
	rng     *rand.Rand // guarded by mu
	dropReq float64    // guarded by mu; probability a request is lost before dispatch
	dropRep float64    // guarded by mu; probability a reply is lost after dispatch

	scriptReq   []bool          // guarded by mu; if non-nil, consumed one per call: true = drop request
	scriptRep   []bool          // guarded by mu
	delay       time.Duration   // guarded by mu; fixed injected delay before every dispatch
	scriptDelay []time.Duration // guarded by mu; per-transaction delays (overrides delay while entries last)
	sched       []string        // guarded by mu; per-transaction fate log, see Schedule

	sleep func(time.Duration) // injected delay sink; nil = time.Sleep

	Requests int // transactions attempted
	Dropped  int // transactions that returned ErrDropped
}

var _ Caller = (*Flaky)(nil)

// NewFlaky wraps inner with loss probabilities and a deterministic seed.
func NewFlaky(inner Transport, dropReq, dropRep float64, seed int64) *Flaky {
	return &Flaky{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		dropReq: dropReq,
		dropRep: dropRep,
	}
}

// ScriptDrops arranges exact loss patterns: on the i-th transaction the
// request is dropped if req[i], else the reply is dropped if rep[i].
// Past the end of the scripts nothing is dropped.
func (f *Flaky) ScriptDrops(req, rep []bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scriptReq, f.scriptRep = req, rep
	f.dropReq, f.dropRep = 0, 0
}

// SetDelay injects a fixed delay before every subsequent dispatch — the
// gray-failure counterpart of a drop: the message arrives, just late.
// 0 clears it.
func (f *Flaky) SetDelay(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay = d
}

// ScriptDelays arranges exact per-transaction delays: the i-th
// transaction waits delays[i] before dispatch. Past the end of the
// script the fixed SetDelay value (if any) applies again.
func (f *Flaky) ScriptDelays(delays []time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scriptDelay = delays
}

// SetSleep replaces the delay sink (nil restores time.Sleep). Tests
// inject a virtual-clock advance so injected delays cost no wall time.
func (f *Flaky) SetSleep(sleep func(time.Duration)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sleep = sleep
}

// Schedule reports what the injector did to each transaction so far,
// e.g. "#0 ok; #1 drop-req; #2 delay(5ms); #3 drop-rep". Retry tests
// include it in failure messages: a bare "err = dropped, want ok" says
// nothing about WHICH attempt the injector ate.
func (f *Flaky) Schedule() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.sched) == 0 {
		return "(no transactions)"
	}
	return strings.Join(f.sched, "; ")
}

func (f *Flaky) decide() (dropReq, dropRep bool, delay time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.Requests
	f.Requests++
	scripted := f.scriptReq != nil || f.scriptRep != nil
	if scripted {
		if i < len(f.scriptReq) {
			dropReq = f.scriptReq[i]
		}
		if i < len(f.scriptRep) {
			dropRep = f.scriptRep[i]
		}
	} else {
		dropReq = f.rng.Float64() < f.dropReq
		dropRep = f.rng.Float64() < f.dropRep
	}
	delay = f.delay
	if i < len(f.scriptDelay) {
		delay = f.scriptDelay[i]
	}
	fate := "ok"
	switch {
	case dropReq:
		fate = "drop-req"
	case dropRep:
		fate = "drop-rep"
	}
	if delay > 0 {
		fate = fmt.Sprintf("delay(%v)+%s", delay, fate)
	}
	f.sched = append(f.sched, fmt.Sprintf("#%d %s", i, fate))
	return dropReq, dropRep, delay
}

// Trans implements Transport with injected loss.
func (f *Flaky) Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error) {
	return f.Call(port, CallOpts{}, req, payload, nil)
}

// Call implements Caller: the call passes through to the inner transport
// under one transaction's scripted fate — the injected delay first (late
// messages, the gray-failure mode), then request loss before dispatch or
// reply loss after it. Frames a lost reply already handed to the sink stay
// delivered.
func (f *Flaky) Call(port capability.Port, opts CallOpts, req Header, payload []byte, sink FrameSink) (Header, []byte, error) {
	dropReq, dropRep, delay := f.decide()
	if delay > 0 {
		f.mu.Lock()
		sleep := f.sleep
		f.mu.Unlock()
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(delay)
	}
	if !dropReq {
		h, p, err := Call(f.inner, port, opts, req, payload, sink)
		if err != nil || !dropRep {
			return h, p, err
		}
	}
	f.mu.Lock()
	f.Dropped++
	f.mu.Unlock()
	return Header{}, nil, ErrDropped
}
