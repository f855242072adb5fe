package rpc

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"bulletfs/internal/capability"
	"bulletfs/internal/stats"
)

// Wire format of one TCP frame, both directions:
//
//	magic   uint32  ('AMTX' requests, 'AMRP' replies)
//	txid    uint64  (at-most-once duplicate suppression; 0 = none)
//	port    [6]byte (requests only the addressed port; replies echo it)
//	header  HeaderLen bytes
//	paylen  uint32
//	payload paylen bytes
//
// A v2 request ('AMT2' magic, same prologue layout) inserts a prologue
// extension between paylen and payload:
//
//	extlen  uint16
//	ext     extlen bytes of TLV fields: type uint8, len uint8, value
//
// Receivers skip unknown TLV types. Type 0x01 carries the 8-byte trace ID.
const (
	magicRequest = 0x414d5458 // "AMTX"
	magicReply   = 0x414d5250 // "AMRP"

	// magicReplyMore marks a non-final frame of a multi-frame (streamed)
	// reply: same prologue layout as a reply, with at least one more frame
	// following on the connection. The final frame of a stream carries the
	// plain reply magic, so a transaction is complete exactly when an AMRP
	// frame arrives. Only stream-aware commands (READSTREAM) ever produce
	// these; every other command replies with a single AMRP frame, keeping
	// old clients wire-compatible.
	magicReplyMore = 0x414d5253 // "AMRS"

	// magicRequestV2 marks a request frame carrying a prologue extension:
	// the v1 prologue byte-for-byte (only the magic differs), then
	// extlen (uint16) and extlen bytes of type-length-value fields, then
	// the payload. Receivers skip unknown field types, so the extension
	// can grow without another version bump; v1-only peers are addressed
	// with v1 frames (the extension is opt-in per request).
	magicRequestV2 = 0x414d5432 // "AMT2"

	// prologueLen is everything before the payload: magic, txid, port,
	// header, paylen.
	prologueLen = 4 + 8 + capability.PortLen + HeaderLen + 4

	// Extension TLV types. A field is type (uint8), length (uint8),
	// value (length bytes).
	extTypeTraceID  = 0x01 // value: 8-byte big-endian trace ID
	extTypeDeadline = 0x02 // value: 8-byte big-endian remaining budget, nanoseconds

	// extMax bounds the extension this implementation emits: extlen plus
	// one trace-ID TLV and one deadline TLV.
	extMax = 2 + (2 + 8) + (2 + 8)

	// extScratchLen is how much inbound-extension scratch serveConn
	// appends to its prologue buffer; larger (future) extensions fall
	// back to a one-shot allocation.
	extScratchLen = 64
)

// scratchPayloadCap bounds the request payloads a server connection reads
// into its reusable buffer (see serveConn); larger requests fall back to
// one-shot allocations rather than pinning megabytes per connection. A
// CREATE's payload goes to its placement instead (Placer), whatever its
// size.
const scratchPayloadCap = 64 << 10

// encodePrologue fills dst (length prologueLen) with everything before
// the payload.
func encodePrologue(dst []byte, magic uint32, txid uint64, port capability.Port, h Header, paylen int) {
	binary.BigEndian.PutUint32(dst[0:4], magic)
	binary.BigEndian.PutUint64(dst[4:12], txid)
	copy(dst[12:12+capability.PortLen], port[:])
	h.Encode(dst[12+capability.PortLen : 12+capability.PortLen : prologueLen-4])
	binary.BigEndian.PutUint32(dst[prologueLen-4:], uint32(paylen))
}

// frameWriter is one sender's frame-writing state, reused for every frame
// it sends: the prologue buffer (with room for a v2 extension) and the
// two-element vector a frame goes out as. A connection owns one per
// direction it writes — the client's under its send lock, the server's on
// the serving goroutine — so a frame costs no allocation.
type frameWriter struct {
	pro  [prologueLen + extMax]byte
	vec  [2][]byte
	bufs net.Buffers
}

// write sends one frame. On a TCP connection the prologue and payload go
// out as one vectored write (writev): no per-frame buffer is assembled and
// the payload is never copied. Other writers get two plain writes. The
// trace ID and deadline budget are both optional (zero means absent);
// either one upgrades a request frame to v2 with the TLV extension between
// prologue and payload. Replies never carry it (the trace lives on the
// server).
func (fw *frameWriter) write(w io.Writer, magic uint32, txid, traceID uint64, budget time.Duration, port capability.Port, h Header, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%d bytes: %w", len(payload), ErrPayloadTooLarge)
	}
	n := prologueLen
	if (traceID != 0 || budget > 0) && magic == magicRequest {
		magic = magicRequestV2
		n += encodeExt(fw.pro[prologueLen:], traceID, budget)
	}
	encodePrologue(fw.pro[:prologueLen], magic, txid, port, h, len(payload))
	fw.vec = [2][]byte{fw.pro[:n], payload}
	fw.bufs = fw.vec[:]
	_, err := fw.bufs.WriteTo(w)
	fw.vec = [2][]byte{} // the payload may be a pin's bytes, released once this returns
	return err
}

// encodeExt writes the extension block (extlen + the TLVs whose values
// are present) into dst and returns its length.
func encodeExt(dst []byte, traceID uint64, budget time.Duration) int {
	n := 2
	if traceID != 0 {
		dst[n] = extTypeTraceID
		dst[n+1] = 8
		binary.BigEndian.PutUint64(dst[n+2:n+10], traceID)
		n += 10
	}
	if budget > 0 {
		dst[n] = extTypeDeadline
		dst[n+1] = 8
		binary.BigEndian.PutUint64(dst[n+2:n+10], uint64(budget))
		n += 10
	}
	binary.BigEndian.PutUint16(dst[0:2], uint16(n-2))
	return n
}

// readFrame reads one whole frame, both directions: readPrologue, then
// the payload into a buffer of its own, which is the caller's. The server
// reads the prologue itself and picks the payload's destination (see
// serveConn).
func readFrame(r io.Reader, wantMagic uint32, fixed []byte) (txid, traceID uint64, budget time.Duration, port capability.Port, h Header, payload []byte, last bool, err error) {
	var n int
	txid, traceID, budget, port, h, n, last, err = readPrologue(r, wantMagic, fixed)
	if err != nil {
		return 0, 0, 0, port, h, nil, false, err
	}
	payload = make([]byte, n)
	if _, err = io.ReadFull(r, payload); err != nil {
		return 0, 0, 0, port, h, nil, false, err
	}
	return txid, traceID, budget, port, h, payload, last, nil
}

// readPrologue is the one frame decoder, both directions, up to the
// payload: it returns the payload's length for the caller to read. fixed
// (length >= prologueLen; bytes past that are inbound-extension scratch)
// is caller-provided.
//
// When wantMagic is magicRequest, v2 request frames are accepted too:
// their extension is parsed for a trace ID (traceID 0 = none carried)
// and a deadline budget (0 = none), and unknown extension fields are
// skipped. When it is magicReply, so is a non-final stream frame (AMRS),
// reported as last == false.
func readPrologue(r io.Reader, wantMagic uint32, fixed []byte) (txid, traceID uint64, budget time.Duration, port capability.Port, h Header, paylen int, last bool, err error) {
	pro := fixed[:prologueLen]
	if _, err = io.ReadFull(r, pro); err != nil {
		return 0, 0, 0, port, h, 0, false, err
	}
	got := binary.BigEndian.Uint32(pro[0:4])
	v2 := wantMagic == magicRequest && got == magicRequestV2
	more := wantMagic == magicReply && got == magicReplyMore
	if got != wantMagic && !v2 && !more {
		return 0, 0, 0, port, h, 0, false, fmt.Errorf("magic %08x: %w", got, ErrBadFrame)
	}
	txid = binary.BigEndian.Uint64(pro[4:12])
	copy(port[:], pro[12:12+capability.PortLen])
	h, _, err = DecodeHeader(pro[12+capability.PortLen : 12+capability.PortLen+HeaderLen])
	if err != nil {
		return 0, 0, 0, port, h, 0, false, err
	}
	n := binary.BigEndian.Uint32(pro[len(pro)-4:])
	if n > MaxPayload {
		return 0, 0, 0, port, h, 0, false, fmt.Errorf("%d bytes: %w", n, ErrPayloadTooLarge)
	}
	if v2 {
		// pro is fully decoded by now, so its first bytes double as the
		// extlen scratch.
		traceID, budget, err = readExt(r, pro[0:2], fixed[prologueLen:])
		if err != nil {
			return 0, 0, 0, port, h, 0, false, err
		}
	}
	return txid, traceID, budget, port, h, int(n), !more, nil
}

// readExt consumes a v2 prologue extension: extlen, then TLV fields.
// Known fields are extracted, unknown types (and known types with an
// unexpected length) are skipped — senders may add fields without
// breaking this receiver. Truncated TLVs are a framing error.
func readExt(r io.Reader, two, scratch []byte) (traceID uint64, budget time.Duration, err error) {
	if _, err = io.ReadFull(r, two[:2]); err != nil {
		return 0, 0, err
	}
	extlen := int(binary.BigEndian.Uint16(two[:2]))
	if extlen == 0 {
		return 0, 0, nil
	}
	ext := scratch
	if extlen > len(ext) {
		ext = make([]byte, extlen)
	}
	ext = ext[:extlen]
	if _, err = io.ReadFull(r, ext); err != nil {
		return 0, 0, err
	}
	for i := 0; i < len(ext); {
		if i+2 > len(ext) {
			return 0, 0, fmt.Errorf("extension tlv truncated: %w", ErrBadFrame)
		}
		typ, l := ext[i], int(ext[i+1])
		i += 2
		if i+l > len(ext) {
			return 0, 0, fmt.Errorf("extension tlv overruns: %w", ErrBadFrame)
		}
		switch {
		case typ == extTypeTraceID && l == 8:
			traceID = binary.BigEndian.Uint64(ext[i : i+8])
		case typ == extTypeDeadline && l == 8:
			budget = time.Duration(binary.BigEndian.Uint64(ext[i : i+8]))
		}
		i += l
	}
	return traceID, budget, nil
}

// TCPServer serves a Mux over a TCP listener, one goroutine per
// connection, requests on a connection processed in order.
type TCPServer struct {
	mux *Mux

	mu     sync.Mutex
	lis    net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
	wg     sync.WaitGroup
}

// NewTCPServer wraps mux for serving.
func NewTCPServer(mux *Mux) *TCPServer {
	return &TCPServer{mux: mux, conns: make(map[net.Conn]struct{})}
}

// Listen starts accepting on addr ("host:port", ":0" for ephemeral) and
// returns the bound address. Serving happens on background goroutines
// until Close.
func (s *TCPServer) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(lis)
	return lis.Addr().String(), nil
}

func (s *TCPServer) acceptLoop(lis net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connReplier writes one connection's reply frames. serveConn owns it and
// points it at each request in turn, so the sink a dispatch writes through
// is bound once per connection, not built per request.
type connReplier struct {
	conn net.Conn
	fw   frameWriter
	txid uint64          // the request being answered
	port capability.Port // likewise
}

// frame is the connection's FrameSink: the frame's header and payload go
// to the socket in one vectored write, and a payload backed by a pinned
// cache view is released by the dispatch layer right after it returns —
// the pin is held exactly over the write, never longer.
func (r *connReplier) frame(h Header, data []byte, last bool) error {
	magic := uint32(magicReplyMore)
	if last {
		magic = magicReply
	}
	return r.fw.write(r.conn, magic, r.txid, 0, 0, r.port, h, data)
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	// fixed holds the prologue plus scratch for the v2 extension, so a
	// traced request costs no more allocation than an untraced one.
	var fixed [prologueLen + extScratchLen]byte
	// A request payload the port's Placer places is read into its
	// placement; any other is read into one buffer the connection reuses,
	// up to scratchPayloadCap: the dispatch (and the Handlers under it)
	// must not retain it. Reply payloads are never reused — the
	// duplicate-suppression cache retains them.
	var reqBuf []byte
	// The connection owns one span arena for its lifetime; each request
	// re-arms it. With no recorder attached and no budget on the request,
	// the Ctx is nil and the trace calls below are no-ops.
	a := s.mux.newArena()
	defer a.release()
	// Likewise the reply writer and the dispatch state: bound once here,
	// re-armed per request, so a request allocates neither.
	rep := &connReplier{conn: conn}
	st := s.mux.newStreamState(rep.frame)
	for {
		txid, traceID, budget, port, req, n, _, err := readPrologue(br, magicRequest, fixed[:])
		if err != nil {
			return // EOF or protocol error: drop the connection
		}
		var payload []byte
		pl := s.mux.place(port, txid, req, n)
		switch {
		case pl != nil:
			payload = pl.Bytes()
		case n <= scratchPayloadCap:
			if cap(reqBuf) < n {
				reqBuf = make([]byte, n)
			}
			payload = reqBuf[:n]
		default:
			payload = make([]byte, n)
		}
		if _, err = io.ReadFull(br, payload); err != nil {
			abandon(pl)
			return // the client went away mid-payload: drop the connection
		}
		cur := a.arm(traceID, budget)
		rep.txid, rep.port = txid, port
		err = s.mux.serve(st, cur, port, txid, req, payload, pl)
		cur.Finish()
		if err != nil {
			// A dispatch error before any frame went out still gets a
			// reply; a mid-stream write error means the connection is gone
			// and the write below fails too, dropping it.
			repHdr := ReplyErr(StatusInternal)
			if errors.Is(err, ErrNoServer) {
				repHdr = ReplyErr(StatusNoSuchObject)
			}
			if werr := rep.frame(repHdr, nil, true); werr != nil {
				return
			}
		}
	}
}

// Close stops the listener and all connections, waiting for handlers.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	lis := s.lis
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if lis != nil {
		err = lis.Close()
	}
	s.wg.Wait()
	return err
}

// Resolver maps a server port to a TCP address — the static equivalent of
// Amoeba's port-location broadcast.
type Resolver func(port capability.Port) (addr string, err error)

// StaticResolver builds a Resolver from a fixed port->address table.
func StaticResolver(table map[capability.Port]string) Resolver {
	return func(p capability.Port) (string, error) {
		addr, ok := table[p]
		if !ok {
			return "", fmt.Errorf("port %x: %w", string(p[:]), ErrNoServer) // a copy: p stays off the heap
		}
		return addr, nil
	}
}

// TCPTransport is a client-side Transport over TCP with one pooled
// connection per server address. Goroutines sharing the transport
// pipeline their transactions on that connection (see tcpConn).
type TCPTransport struct {
	resolve Resolver
	timeout time.Duration
	dial    func(network, addr string, timeout time.Duration) (net.Conn, error) // net.DialTimeout; a test seam

	mu        sync.Mutex
	conns     map[string]*tcpConn // guarded by mu
	timeouts  *stats.Counter      // guarded by mu (pointer swap only; see AttachMetrics)
	transErrs *stats.Counter      // guarded by mu (pointer swap only; see AttachMetrics)
}

// tcpConn is one pooled connection. A caller sends under smu and takes a
// ticket, its place in the reply order — the server serves a connection
// strictly in order — then waits, holding nothing, for the receive turn:
// recvd reaching that ticket. The turn's holder alone reads the socket,
// exactly its own reply frame(s), and passes the turn on. smu and rmu are
// never nested; only the turn itself is held across a socket wait.
type tcpConn struct {
	conn net.Conn // safe for concurrent use; smu orders writers, the turn orders readers

	smu  sync.Mutex  // send lock: deadline arm + one writev + taking a ticket
	sent uint64      // guarded by smu; tickets handed out, one per request on the wire
	fw   frameWriter // guarded by smu; the request frames' writer

	rmu   sync.Mutex
	turn  sync.Cond // on rmu; broadcast when recvd moves or dead is set
	recvd uint64    // guarded by rmu; the ticket whose reply is next on the wire
	dead  error     // guarded by rmu; sticky, set by the first failed transaction

	br  *bufio.Reader     // the turn holder's, from enter to passTurn; no lock
	pro [prologueLen]byte // likewise: readFrame's prologue buffer
}

var _ Caller = (*TCPTransport)(nil)

// errStreamAbandoned fails the callers queued behind a streamed Call whose
// sink gave up or panicked: the frames still in flight are in their way too.
var errStreamAbandoned = errors.New("connection dropped by an abandoned stream")

// NewTCPTransport builds a client transport. timeout bounds each
// transaction (0 means no deadline).
func NewTCPTransport(resolve Resolver, timeout time.Duration) *TCPTransport {
	return &TCPTransport{resolve: resolve, timeout: timeout, dial: net.DialTimeout, conns: make(map[string]*tcpConn)}
}

// getConn returns the pooled connection to addr, dialling if there is
// none. The dial runs outside mu — an unreachable address must not stall
// calls to other addresses, kill or Close — so two callers may race; the
// loser's connection is closed.
func (t *TCPTransport) getConn(addr string) (*tcpConn, error) {
	t.mu.Lock()
	c, ok := t.conns[addr]
	t.mu.Unlock()
	if ok {
		return c, nil
	}
	conn, err := t.dial("tcp", addr, t.timeout)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	c = &tcpConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	c.turn.L = &c.rmu
	t.mu.Lock()
	defer t.mu.Unlock()
	if won, ok := t.conns[addr]; ok {
		conn.Close()
		return won, nil
	}
	t.conns[addr] = c
	return c, nil
}

// enter sends one request and returns once the caller holds the receive
// turn. The deadline counts from the caller's own send; the write is armed
// under the send lock and the read only when the turn is taken, so a later
// sender cannot extend an earlier caller's bound. A deadline that passed
// while the caller was queued fails its first socket read at once.
func (c *tcpConn) enter(timeout time.Duration, port capability.Port, opts CallOpts, req Header, payload []byte) (err error) {
	var deadline time.Time
	c.smu.Lock()
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		err = c.conn.SetWriteDeadline(deadline)
	}
	if err == nil {
		// One vectored write per request (see frameWriter): nothing to flush.
		err = c.fw.write(c.conn, magicRequest, opts.TxID, opts.TraceID, opts.Budget, port, req, payload)
	}
	ticket := c.sent
	c.sent++ // even after a failed write: the connection dies with it, tickets and all
	c.smu.Unlock()
	if err != nil {
		return err
	}
	c.rmu.Lock()
	for c.recvd != ticket && c.dead == nil {
		c.turn.Wait() // holding nothing
	}
	err = c.dead
	c.rmu.Unlock()
	if err == nil && timeout > 0 {
		err = c.conn.SetReadDeadline(deadline)
	}
	return err
}

// passTurn hands the socket's read side to the next ticket.
func (c *tcpConn) passTurn() {
	c.rmu.Lock()
	c.recvd++
	c.rmu.Unlock()
	c.turn.Broadcast()
}

// kill ends c. The first error sticks as c.dead, wakes every queued
// caller to fail with it too, and drops the connection — once.
func (t *TCPTransport) kill(addr string, c *tcpConn, err error) {
	c.rmu.Lock()
	if c.dead != nil {
		c.rmu.Unlock()
		return
	}
	c.dead = err
	c.rmu.Unlock()
	c.turn.Broadcast()
	t.mu.Lock()
	if t.conns[addr] == c {
		delete(t.conns, addr)
	}
	t.mu.Unlock()
	c.conn.Close()
}

// Trans implements Transport: Call with no options and a single-frame
// reply.
func (t *TCPTransport) Trans(port capability.Port, req Header, payload []byte) (Header, []byte, error) {
	return t.Call(port, CallOpts{}, req, payload, nil)
}

// Call implements Caller and is the one transaction path: enter, then read
// reply frames up to the final one. Any non-zero option upgrades the
// request frame to v2; zero options send a v1 frame, so such calls stay
// wire-compatible with pre-extension servers. With a sink every frame goes
// to it as it arrives off the wire, under the receive turn and the
// per-transaction deadline; without one the reply must be a single frame,
// whose payload is returned. A sink that fails or panics drops the
// connection: frames in flight and callers queued behind die with it. A
// payload over MaxPayload is refused before it touches the connection, so
// the calls sharing it go on undisturbed.
func (t *TCPTransport) Call(port capability.Port, opts CallOpts, req Header, payload []byte, sink FrameSink) (h Header, data []byte, err error) {
	if len(payload) > MaxPayload {
		return Header{}, nil, fmt.Errorf("%d bytes: %w", len(payload), ErrPayloadTooLarge)
	}
	addr, err := t.resolve(port)
	if err != nil {
		return Header{}, nil, err
	}
	c, err := t.getConn(addr)
	if err != nil {
		t.noteTransportErr(err)
		return Header{}, nil, err
	}
	err = c.enter(t.timeout, port, opts, req, payload)
	for err == nil {
		var last bool
		_, _, _, _, h, data, last, err = readFrame(c.br, magicReply, c.pro[:])
		if err == nil && sink == nil && !last {
			err = fmt.Errorf("stream frame in a single-frame reply: %w", ErrBadFrame)
		}
		if err != nil {
			break
		}
		if sink != nil {
			if serr := t.deliver(addr, c, sink, h, data, last); serr != nil {
				return h, nil, serr
			}
			data = nil
		}
		if last {
			c.passTurn()
			return h, data, nil
		}
	}
	t.kill(addr, c, err)
	err = fmt.Errorf("rpc: trans %s: %w", addr, err)
	t.noteTransportErr(err)
	return Header{}, nil, err
}

// deliver hands one frame to sink under the receive turn. A sink that
// returns an error or panics abandons the stream: the rest of its frames
// are still on the wire, so the connection is killed — counted as the
// caller's own failure, not a transport error — and a panic goes on up.
func (t *TCPTransport) deliver(addr string, c *tcpConn, sink FrameSink, h Header, data []byte, last bool) error {
	abandoned := true
	defer func() {
		if abandoned {
			t.kill(addr, c, errStreamAbandoned)
		}
	}()
	err := sink(h, data, last)
	abandoned = err != nil
	return err
}

// Close drops all pooled connections.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for addr, c := range t.conns {
		c.conn.Close()
		delete(t.conns, addr)
	}
	return nil
}
