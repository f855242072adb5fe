// Package bulletsvc exposes the Bullet engine (internal/bullet) over the
// Amoeba-style RPC layer (internal/rpc): the wire protocol, the server-side
// handler, and the mapping between engine errors and transaction status
// codes. The client stubs live in internal/client.
//
// The protocol mirrors paper §2.2: CREATE, SIZE, READ and DELETE, extended
// with MODIFY/APPEND ("generating a new file based on an existing file",
// §5), a partial read for small-memory clients, and administrative
// operations (stat, sync, compaction).
//
// The handler has one entry point, HandleStream, registered by Register
// and run by every transport: bulletd's TCP server, rpc.Local and simnet.
// Each file command maps onto one engine method.
package bulletsvc

import (
	"encoding/json"
	"errors"
	"time"

	"bulletfs/internal/alloc"
	"bulletfs/internal/bullet"
	"bulletfs/internal/cache"
	"bulletfs/internal/capability"
	"bulletfs/internal/disk"
	"bulletfs/internal/rpc"
	"bulletfs/internal/scrub"
	"bulletfs/internal/stats"
	"bulletfs/internal/trace"
)

// Command codes of the Bullet protocol. A retired code is never reused:
// 11 (COMPACT-CACHE) and 16-19 (the create-session commands) answer
// StatusBadCommand like any unknown code (docs/PROTOCOL.md).
const (
	CmdCreate      uint32 = 1  // payload=data, Arg=p-factor -> reply Cap
	CmdSize        uint32 = 2  // Cap -> reply Arg=size
	CmdRead        uint32 = 3  // Cap -> reply payload=data
	CmdDelete      uint32 = 4  // Cap
	CmdModify      uint32 = 5  // Cap, Arg=offset, Arg2=packed(newSize,pf), payload=patch -> reply Cap
	CmdAppend      uint32 = 6  // Cap, Arg=p-factor, payload=data -> reply Cap
	CmdReadRange   uint32 = 7  // Cap, Arg=offset, Arg2=n -> reply payload
	CmdStat        uint32 = 8  // -> reply payload=JSON ServerStats
	CmdSync        uint32 = 9  // wait for background write-through
	CmdCompactDisk uint32 = 10 // run the 3 a.m. compactor now
	CmdStats       uint32 = 12 // Cap (read right) -> reply payload=JSON stats.Snapshot
	CmdTrace       uint32 = 13 // Cap (read right), Arg=selector (TraceRecent/TraceSlow) -> reply payload=JSON []trace.JSONTrace
	CmdSalvage     uint32 = 14 // Cap, Arg=selector (SalvageHealth/SalvageScrub/SalvageRecover), Arg2=replica -> reply payload=JSON HealthReport

	// Streaming extension (see docs/PROTOCOL.md): a chunked read serving
	// large files as a sequence of ranged frames off one cache pin.
	CmdReadStream uint32 = 15 // Cap, Arg=offset, Arg2=chunk-size hint -> frames: Arg=chunk offset, Arg2=file size, payload=chunk

	// Streaming telemetry subscription: one frame per collector tick
	// until the client disconnects or the requested count is served.
	CmdWatch uint32 = 20 // Cap (read right), Arg=max updates (0=unbounded) -> frames: Arg=seq, payload=JSON stats.Update
)

// CmdSalvage selectors (the request header's Arg). SalvageHealth needs the
// read right (a report, like stats and traces); the two triggers mutate
// server state and need the admin right.
const (
	SalvageHealth  uint64 = 0 // -> JSON HealthReport
	SalvageScrub   uint64 = 1 // trigger an immediate scrub pass
	SalvageRecover uint64 = 2 // Arg2=replica: start online recovery
)

// CmdTrace selectors (the request header's Arg).
const (
	TraceRecent uint64 = 0 // the flight recorder's recent ring
	TraceSlow   uint64 = 1 // the slow-request ring
)

// CommandName maps a Bullet command code to a short lowercase name, for
// metric keys and diagnostics. Unknown codes return "".
func CommandName(cmd uint32) string {
	switch cmd {
	case CmdCreate:
		return "create"
	case CmdSize:
		return "size"
	case CmdRead:
		return "read"
	case CmdDelete:
		return "delete"
	case CmdModify:
		return "modify"
	case CmdAppend:
		return "append"
	case CmdReadRange:
		return "readrange"
	case CmdStat:
		return "stat"
	case CmdSync:
		return "sync"
	case CmdCompactDisk:
		return "compactdisk"
	case CmdStats:
		return "stats"
	case CmdTrace:
		return "trace"
	case CmdSalvage:
		return "salvage"
	case CmdReadStream:
		return "readstream"
	case CmdWatch:
		return "watch"
	default:
		return ""
	}
}

// PackModifyArg2 packs the newSize (-1 for "natural size") and p-factor of
// a CmdModify into the header's second argument: p-factor in the top 16
// bits, newSize+1 in the low 48 (file sizes are < 2^32, so this is ample).
func PackModifyArg2(newSize int64, pfactor int) uint64 {
	return uint64(pfactor)<<48 | (uint64(newSize+1) & (1<<48 - 1))
}

// UnpackModifyArg2 reverses PackModifyArg2.
func UnpackModifyArg2(arg2 uint64) (newSize int64, pfactor int) {
	pfactor = int(arg2 >> 48)
	newSize = int64(arg2&(1<<48-1)) - 1
	return newSize, pfactor
}

// ServerStats is the JSON payload of CmdStat.
type ServerStats struct {
	Engine      bullet.Stats `json:"engine"`
	Cache       cache.Stats  `json:"cache"`
	Disk        alloc.Stats  `json:"disk"`
	LiveFiles   int          `json:"liveFiles"`
	MaxFileSize int64        `json:"maxFileSize"`
}

// StatusOf maps an engine/capability error onto a transaction status.
func StatusOf(err error) rpc.Status {
	switch {
	case err == nil:
		return rpc.StatusOK
	case errors.Is(err, bullet.ErrNoSuchFile):
		return rpc.StatusNoSuchObject
	case errors.Is(err, capability.ErrBadCheck):
		return rpc.StatusBadCheck
	case errors.Is(err, capability.ErrBadRights):
		return rpc.StatusBadRights
	case errors.Is(err, bullet.ErrTooLarge), errors.Is(err, cache.ErrTooLarge):
		return rpc.StatusTooLarge
	case errors.Is(err, bullet.ErrDiskFull):
		return rpc.StatusNoSpace
	case errors.Is(err, bullet.ErrBadPFactor):
		return rpc.StatusBadPFactor
	case errors.Is(err, bullet.ErrBadOffset):
		return rpc.StatusBadOffset
	case errors.Is(err, disk.ErrRecovering):
		return rpc.StatusBusy
	case errors.Is(err, bullet.ErrBadReplica):
		return rpc.StatusBadRequest
	case errors.Is(err, trace.ErrDeadlineExceeded):
		return rpc.StatusDeadlineExceeded
	default:
		return rpc.StatusInternal
	}
}

// ErrorOf maps a reply status back onto the canonical error values, so
// errors.Is(err, bullet.ErrNoSuchFile) works on the client side of the
// wire.
func ErrorOf(st rpc.Status) error {
	switch st {
	case rpc.StatusOK:
		return nil
	case rpc.StatusNoSuchObject:
		return bullet.ErrNoSuchFile
	case rpc.StatusBadCheck:
		return capability.ErrBadCheck
	case rpc.StatusBadRights:
		return capability.ErrBadRights
	case rpc.StatusTooLarge:
		return bullet.ErrTooLarge
	case rpc.StatusNoSpace:
		return bullet.ErrDiskFull
	case rpc.StatusBadPFactor:
		return bullet.ErrBadPFactor
	case rpc.StatusBadOffset:
		return bullet.ErrBadOffset
	case rpc.StatusBusy:
		return disk.ErrRecovering
	case rpc.StatusDeadlineExceeded:
		return trace.ErrDeadlineExceeded
	default:
		return rpc.Errf(st, "server error")
	}
}

// HealthReport is the JSON payload of CmdSalvage's health selector: the
// engine's self-diagnosis plus, when a scrubber is attached, its progress.
type HealthReport struct {
	bullet.HealthReport
	Scrub *scrub.Status `json:"scrub,omitempty"`
}

// Service adapts a Bullet engine to an rpc.Handler.
type Service struct {
	engine   *bullet.Server
	rec      *trace.Recorder  // optional; serves CmdTrace when non-nil
	scrubber *scrub.Scrubber  // optional; SALVAGE's scrub trigger, paused during compaction
	adm      *Admission       // optional; bounds in-flight file operations, sheds with StatusBusy
	coll     *stats.Collector // optional; serves CmdWatch when non-nil

	// deadlineSheds counts requests refused at the door because their
	// deadline budget was already spent on arrival (queueing, transport).
	// Distinct from admission sheds: the server had room, the caller had
	// no time left to use it.
	deadlineSheds stats.Counter
}

// New wraps engine.
func New(engine *bullet.Server) *Service {
	s := &Service{engine: engine}
	engine.Metrics().GaugeFunc("rpc.deadline_sheds", s.deadlineSheds.Load)
	return s
}

// DeadlineSheds returns how many requests were refused with
// StatusDeadlineExceeded before any work was done on them.
func (s *Service) DeadlineSheds() int64 { return s.deadlineSheds.Load() }

// shedExpired reports whether the request arrived with its deadline
// budget already spent and must be refused with StatusDeadlineExceeded.
// Only admission-controlled (file) operations shed: control-plane
// queries are cheap and answering them late still helps. The check sits
// before any engine work — a deadline never cancels a mutation midway
// (see internal/trace/deadline.go on why).
func (s *Service) shedExpired(tc *trace.Ctx, parent *trace.Span, cmd uint32) bool {
	if !admissionControlled(cmd) || !tc.DeadlineExceeded() {
		return false
	}
	s.deadlineSheds.Inc()
	if sp := tc.Add(parent, trace.LayerRPC, trace.OpAdmit, time.Now(), 0); sp != nil {
		sp.Status = int32(rpc.StatusDeadlineExceeded)
	}
	return true
}

// AttachRecorder wires the flight recorder the service serves over
// CmdTrace. Call before Register; nil leaves CmdTrace answering
// StatusBadCommand (tracing not enabled).
func (s *Service) AttachRecorder(rec *trace.Recorder) { s.rec = rec }

// AttachScrubber wires the background scrubber: SALVAGE's scrub selector
// triggers a pass on it, the health report includes its progress, and
// disk compaction pauses it for the duration (the two otherwise fight
// over the metadata lock while extents move). Call before Register.
func (s *Service) AttachScrubber(sc *scrub.Scrubber) { s.scrubber = sc }

// AttachAdmission wires an in-flight limiter in front of the file
// operations: once limit operations are in flight, further ones are
// refused immediately with StatusBusy instead of queueing (see Admission).
// Call before Register; nil (the default) leaves admission unlimited.
func (s *Service) AttachAdmission(a *Admission) { s.adm = a }

// Admission returns the attached limiter (nil if none).
func (s *Service) Admission() *Admission { return s.adm }

// AttachCollector wires the telemetry collector the service serves over
// CmdWatch. Call before Register; nil leaves CmdWatch answering
// StatusBadCommand (streaming telemetry not enabled).
func (s *Service) AttachCollector(c *stats.Collector) { s.coll = c }

// Register installs the service on mux under the engine's port, as a
// stream handler: HandleStream is the one dispatch, whatever the
// transport. TCP writes each frame as it is emitted; in-process
// transports (rpc.Local, simnet) see the frames assembled for them by the
// mux. Span contexts thread through either way, so every layer hangs its
// spans under the RPC root span. A CREATE's payload is placed (place).
func (s *Service) Register(mux *rpc.Mux) {
	mux.RegisterPlaced(s.engine.Port(), s.HandleStream, s.place)
}

// place is the service's rpc.Placer: a CREATE's payload is read straight
// into a placement in the engine's cache (bullet.Server.Place), which the
// create then adopts, so the file's bytes land in memory once; the rpc
// layer abandons the placement if the request never reaches the create.
// Every other payload goes to the transport's buffer.
func (s *Service) place(req rpc.Header, n int) rpc.Placement {
	if req.Command != CmdCreate {
		return nil
	}
	// Like CREATE itself, a placement needs no capability: it sets memory
	// aside for an object that does not exist yet (it may evict cached
	// copies to make room, as any cache fill does).
	//lint:ignore rightscheck a CREATE's placement precedes the object it is for; nothing pre-existing to check
	p, err := s.engine.Place(nil, nil, n)
	if err != nil {
		return nil // too large: read it anyway, and the create refuses it
	}
	return p
}

// HandleStream processes one Bullet transaction, emitting one or more
// reply frames. Every command first passes enter (deadline shed, then
// admission). A CREATE's payload may be a placement (place), which
// CreateDeferred adopts. READ and READ_RANGE replies borrow the engine's
// pinned cache bytes (the RPC layer writes them to the socket and
// releases the pin afterwards — zero payload copies); READSTREAM and
// WATCH emit a sequence of frames. CREATE, MODIFY and APPEND reply once
// the P-FACTOR quorum holds the new file and leave the rest of the
// write-through to the RPC layer as the reply's After. Every other
// command is a single frame built by handle.
func (s *Service) HandleStream(tc *trace.Ctx, parent *trace.Span, req rpc.Header, payload []byte, emit rpc.Emitter) {
	held, ok := s.enter(tc, parent, req.Command, emit)
	if !ok {
		return
	}
	if held {
		defer s.adm.Release()
	}
	switch req.Command {
	case CmdRead, CmdReadRange:
		offset, n := int64(0), int64(-1)
		if req.Command == CmdReadRange {
			// Arg2 all-ones (n = -1) means "to the end of the file" — the
			// wire form of the engine's open-ended range.
			offset, n = int64(req.Arg), int64(req.Arg2)
		}
		lease, err := s.engine.ReadView(tc, parent, req.Cap, offset, n)
		if err != nil {
			_ = emit(rpc.ReplyErr(StatusOf(err)), rpc.Plain(nil), true)
			return
		}
		// Ownership transfer: the RPC layer releases the lease once the
		// frame's bytes have been written.
		_ = emit(rpc.ReplyOK(), rpc.Owned(lease.Bytes(), lease), true)

	case CmdCreate, CmdModify, CmdAppend:
		var c capability.Capability
		var later func()
		var err error
		switch req.Command {
		case CmdCreate:
			// CREATE mints a brand-new object and returns its capability;
			// there is no pre-existing capability to verify (paper §2.2 —
			// possession of the server port is the only admission).
			//lint:ignore rightscheck CREATE mints the object and its capability; nothing pre-existing to check
			c, later, err = s.engine.CreateDeferred(tc, parent, payload, int(req.Arg))
		case CmdModify:
			newSize, pfactor := UnpackModifyArg2(req.Arg2)
			c, later, err = s.engine.Modify(tc, parent, req.Cap, int64(req.Arg), payload, newSize, pfactor)
		default:
			c, later, err = s.engine.Append(tc, parent, req.Cap, payload, int(req.Arg))
		}
		if err != nil {
			_ = emit(rpc.ReplyErr(StatusOf(err)), rpc.Plain(nil), true)
			return
		}
		_ = emit(rpc.Header{Status: rpc.StatusOK, Cap: c}, rpc.Payload{After: later}, true)

	case CmdReadStream:
		s.handleReadStream(tc, parent, req, emit)

	case CmdWatch:
		s.handleWatch(tc, parent, req, emit)

	default:
		h, p := s.handle(tc, parent, req)
		_ = emit(h, rpc.Plain(p), true)
	}
}

// enter is the door every command passes: the deadline shed, then
// admission. When ok is false the refusal has been emitted and the request
// is done; when held is true the request holds an admission slot the
// caller must Release when done.
func (s *Service) enter(tc *trace.Ctx, parent *trace.Span, cmd uint32, emit rpc.Emitter) (held, ok bool) {
	if s.shedExpired(tc, parent, cmd) {
		_ = emit(rpc.ReplyErr(rpc.StatusDeadlineExceeded), rpc.Plain(nil), true)
		return false, false
	}
	if s.adm == nil || !admissionControlled(cmd) {
		return false, true
	}
	sp := tc.Begin(parent, trace.LayerRPC, trace.OpAdmit)
	ok = s.adm.TryEnter()
	if !ok && sp != nil {
		sp.Status = int32(rpc.StatusBusy)
	}
	tc.End(sp)
	if !ok {
		_ = emit(rpc.ReplyErr(rpc.StatusBusy), rpc.Plain(nil), true)
		return false, false
	}
	return !s.adm.manualRelease, true
}

// handle builds the reply to a single-frame command.
func (s *Service) handle(tc *trace.Ctx, parent *trace.Span, req rpc.Header) (rpc.Header, []byte) {
	switch req.Command {
	case CmdSize:
		n, err := s.engine.Size(tc, parent, req.Cap)
		if err != nil {
			return rpc.ReplyErr(StatusOf(err)), nil
		}
		return rpc.Header{Status: rpc.StatusOK, Arg: uint64(n)}, nil

	case CmdDelete:
		if err := s.engine.Delete(tc, parent, req.Cap); err != nil {
			return rpc.ReplyErr(StatusOf(err)), nil
		}
		return rpc.ReplyOK(), nil

	case CmdTrace:
		return s.handleTrace(tc, parent, req)

	case CmdSalvage:
		return s.handleSalvage(tc, parent, req)

	case CmdStat:
		stats := ServerStats{
			Engine:      s.engine.Stats(),
			Cache:       s.engine.CacheStats(),
			Disk:        s.engine.DiskStats(),
			LiveFiles:   s.engine.Live(),
			MaxFileSize: s.engine.MaxFileSize(),
		}
		body, err := json.Marshal(stats)
		if err != nil {
			return rpc.ReplyErr(rpc.StatusInternal), nil
		}
		return rpc.ReplyOK(), body

	case CmdStats:
		snap, err := s.engine.StatsSnapshot(req.Cap)
		if err != nil {
			return rpc.ReplyErr(StatusOf(err)), nil
		}
		body, err := json.Marshal(snap)
		if err != nil {
			return rpc.ReplyErr(rpc.StatusInternal), nil
		}
		return rpc.ReplyOK(), body

	case CmdSync:
		// SYNC and COMPACT_DISK are the operator maintenance surface and
		// predate the admin right, which only SALVAGE demands. They
		// destroy no data — sync flushes, the compactor reorganizes — so
		// they stay open until the planned admin-capability migration;
		// see docs/STATIC_ANALYSIS.md.
		//lint:ignore rightscheck operator maintenance command from before the admin right; flushes but never destroys data
		s.engine.Sync()
		return rpc.ReplyOK(), nil

	case CmdCompactDisk:
		if s.scrubber != nil {
			s.scrubber.Pause()
			defer s.scrubber.Resume()
		}
		//lint:ignore rightscheck operator maintenance command from before the admin right; compaction moves data but never destroys it
		if err := s.engine.CompactDisk(); err != nil {
			return rpc.ReplyErr(StatusOf(err)), nil
		}
		return rpc.ReplyOK(), nil

	default:
		return rpc.ReplyErr(rpc.StatusBadCommand), nil
	}
}

// handleTrace serves CmdTrace: dump the flight recorder's recent or slow
// ring as JSON. Capability-checked like CmdStats — any valid capability
// for a live file with the read right is admission enough, because traces
// (like statistics) are read-only observability.
func (s *Service) handleTrace(tc *trace.Ctx, parent *trace.Span, req rpc.Header) (rpc.Header, []byte) {
	if s.rec == nil {
		return rpc.ReplyErr(rpc.StatusBadCommand), nil
	}
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpTrace)
	defer tc.End(sp)
	if err := s.engine.AuthorizeRead(req.Cap); err != nil {
		if sp != nil {
			sp.Status = 1
		}
		return rpc.ReplyErr(StatusOf(err)), nil
	}
	var ts []trace.Trace
	switch req.Arg {
	case TraceRecent:
		ts = s.rec.Recent()
	case TraceSlow:
		ts = s.rec.Slow()
	default:
		return rpc.ReplyErr(rpc.StatusBadRequest), nil
	}
	body, err := trace.EncodeTraces(ts)
	if err != nil {
		return rpc.ReplyErr(rpc.StatusInternal), nil
	}
	if sp != nil {
		sp.Bytes = int64(len(body))
	}
	return rpc.ReplyOK(), body
}

// handleSalvage serves CmdSalvage: the self-healing control surface. The
// health selector is read-only and admitted like stats/traces (read
// right); the scrub and recover selectors change server behaviour and
// demand the admin right.
func (s *Service) handleSalvage(tc *trace.Ctx, parent *trace.Span, req rpc.Header) (rpc.Header, []byte) {
	sp := tc.Begin(parent, trace.LayerEngine, trace.OpSalvage)
	defer tc.End(sp)
	fail := func(err error) (rpc.Header, []byte) {
		if sp != nil {
			sp.Status = 1
		}
		return rpc.ReplyErr(StatusOf(err)), nil
	}
	switch req.Arg {
	case SalvageHealth:
		if err := s.engine.AuthorizeRead(req.Cap); err != nil {
			return fail(err)
		}
		report := HealthReport{HealthReport: s.engine.Health()}
		if s.scrubber != nil {
			st := s.scrubber.Status()
			report.Scrub = &st
		}
		body, err := json.Marshal(report)
		if err != nil {
			return rpc.ReplyErr(rpc.StatusInternal), nil
		}
		if sp != nil {
			sp.Bytes = int64(len(body))
		}
		return rpc.ReplyOK(), body

	case SalvageScrub:
		if err := s.engine.AuthorizeAdmin(req.Cap); err != nil {
			return fail(err)
		}
		if s.scrubber == nil {
			if sp != nil {
				sp.Status = 1
			}
			return rpc.ReplyErr(rpc.StatusBadCommand), nil // scrubbing not enabled
		}
		s.scrubber.TriggerPass()
		return rpc.ReplyOK(), nil

	case SalvageRecover:
		if err := s.engine.AuthorizeAdmin(req.Cap); err != nil {
			return fail(err)
		}
		if sp != nil {
			sp.Replica = int8(int(req.Arg2))
		}
		if err := s.engine.StartRecover(int(req.Arg2)); err != nil {
			return fail(err)
		}
		return rpc.ReplyOK(), nil

	default:
		if sp != nil {
			sp.Status = 1
		}
		return rpc.ReplyErr(rpc.StatusBadRequest), nil
	}
}
