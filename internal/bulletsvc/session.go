package bulletsvc

import (
	"sync"
	"time"

	"bulletfs/internal/rpc"
	"bulletfs/internal/trace"
)

// Create sessions: the streaming CREATE. A client whose file exceeds the
// request payload limit (or that produces it incrementally) opens a
// session (CmdCreateStart), appends chunks (CmdCreateWrite), and commits
// (CmdCreateCommit) — the engine then stores the accumulated bytes as
// ONE ordinary create, so the file lands in a single contiguous extent
// with the usual capability, checksum and replication semantics. Every
// session command is a normal single-frame transaction, so the retry
// machinery's duplicate suppression covers it; CmdCreateWrite is
// additionally self-describing (the chunk's offset must equal the bytes
// accumulated so far), so a replayed write past the dedup window is
// recognized and acknowledged without corrupting the buffer.

const (
	// maxCreateSessions bounds concurrently open sessions.
	maxCreateSessions = 64
	// sessionIdleExpiry is how long an untouched session survives before
	// a later CmdCreateStart may sweep it (a client that died mid-upload).
	sessionIdleExpiry = 5 * time.Minute
)

// createSession is one in-progress streaming create.
type createSession struct {
	buf      []byte
	lastUsed time.Time
}

// sessionTable holds a service's open create sessions, bounded by count
// and by total buffered bytes.
type sessionTable struct {
	mu       sync.Mutex
	sessions map[uint64]*createSession // guarded by mu
	buffered int64                     // guarded by mu; total buffered bytes
}

// take closes session id and returns the bytes it accumulated.
func (t *sessionTable) take(id uint64) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, ok := t.sessions[id]
	if !ok {
		return nil, false
	}
	delete(t.sessions, id)
	t.buffered -= int64(len(cs.buf))
	return cs.buf, true
}

// handleSession serves the single-frame create-session commands: start,
// write and abort. CmdCreateCommit is a create and is served with CREATE
// in HandleStream.
func (s *Service) handleSession(tc *trace.Ctx, parent *trace.Span, req rpc.Header, payload []byte) (rpc.Header, []byte) {
	t := &s.sess
	switch req.Command {
	case CmdCreateStart:
		id, err := rpc.NewTxID()
		if err != nil {
			return rpc.ReplyErr(rpc.StatusInternal), nil
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.sessions == nil {
			t.sessions = make(map[uint64]*createSession)
		}
		// Sweep sessions whose clients have gone quiet; a live uploader
		// touches its session every chunk.
		now := time.Now()
		for sid, cs := range t.sessions {
			if now.Sub(cs.lastUsed) > sessionIdleExpiry {
				t.buffered -= int64(len(cs.buf))
				delete(t.sessions, sid)
			}
		}
		if len(t.sessions) >= maxCreateSessions {
			return rpc.ReplyErr(rpc.StatusBusy), nil
		}
		t.sessions[id] = &createSession{lastUsed: now}
		return rpc.Header{Status: rpc.StatusOK, Arg: id}, nil

	case CmdCreateWrite:
		t.mu.Lock()
		defer t.mu.Unlock()
		cs, ok := t.sessions[req.Arg]
		if !ok {
			return rpc.ReplyErr(rpc.StatusNotFound), nil
		}
		cs.lastUsed = time.Now()
		off := int64(req.Arg2)
		if off != int64(len(cs.buf)) {
			// A duplicate of a chunk already absorbed (retry whose first
			// attempt landed but whose reply was lost, past the dedup
			// window) is acknowledged as a no-op; anything else is a gap
			// or overlap the client must not produce.
			if off+int64(len(payload)) <= int64(len(cs.buf)) {
				return rpc.ReplyOK(), nil
			}
			return rpc.ReplyErr(rpc.StatusBadOffset), nil
		}
		max := s.engine.MaxFileSize()
		if int64(len(cs.buf))+int64(len(payload)) > max {
			return rpc.ReplyErr(rpc.StatusTooLarge), nil
		}
		if t.buffered+int64(len(payload)) > 2*max {
			return rpc.ReplyErr(rpc.StatusBusy), nil
		}
		// The request payload is pooled (dead after this call): copy.
		cs.buf = append(cs.buf, payload...)
		t.buffered += int64(len(payload))
		return rpc.ReplyOK(), nil

	case CmdCreateAbort:
		t.mu.Lock()
		defer t.mu.Unlock()
		if cs, ok := t.sessions[req.Arg]; ok {
			t.buffered -= int64(len(cs.buf))
			delete(t.sessions, req.Arg)
		}
		// Aborting an unknown (already swept or committed) session is OK:
		// the client only wants it gone.
		return rpc.ReplyOK(), nil

	default:
		return rpc.ReplyErr(rpc.StatusBadCommand), nil
	}
}
