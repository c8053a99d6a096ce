package devnet

import "sync"

// SessionTable is the server's idempotency state: for every client
// session it keeps a sliding window of recently executed sequence
// numbers and their successful response payloads. A retransmitted
// (session, seq) whose original already succeeded is answered from the
// cache without touching the device — that is what makes a blind client
// retry of a write exactly-once. Each response is kept with the tenant
// binding of the connection it was produced for and is replayed only to a
// connection with the same binding: a session id is a uniqueness token,
// not a credential, so presenting one must not be a way around
// OpTenantAttach.
//
// Only successful (StatusOK) responses are cached: a failed operation
// did not commit anything, so re-executing it on retry is both safe and
// required (the failure may have been transient, e.g. a crash barrier
// that recovery has since cleared).
//
// The table is deliberately a standalone object rather than a Server
// field: a supervisor that kills and restarts the server hands the same
// table to the replacement, modeling dedup state that lives in the
// persistence domain alongside the data it protects. An acknowledged
// write survives a power cut; so must the record that it was
// acknowledged, or a retry straddling the crash double-applies.
type SessionTable struct {
	mu          sync.Mutex
	window      int
	maxSessions int
	clock       uint64
	sessions    map[uint64]*sessionState

	hits, misses, stores, evictions uint64
}

type sessionState struct {
	lastUsed uint64
	entries  map[uint64]cachedResponse
	order    []uint64 // insertion ring, oldest first
}

// cachedResponse is one window entry: the response payload and the tenant
// the connection that earned it was bound to (0 = unbound).
type cachedResponse struct {
	tenant uint32
	resp   []byte
}

// defaultDedupWindow is how many responses a session keeps by default.
// It is also the most frames a Pipe puts in flight: a go-back-N
// retransmit of a full window must still find every executed batch here.
const defaultDedupWindow = 16

// NewSessionTable builds a table keeping the last window responses per
// session across at most maxSessions sessions (LRU-evicted). Zero or
// negative arguments select the defaults (defaultDedupWindow entries,
// 1024 sessions). A stop-and-wait Client needs a window of 1; a Pipe
// needs one entry per batch it may have in flight.
func NewSessionTable(window, maxSessions int) *SessionTable {
	if window <= 0 {
		window = defaultDedupWindow
	}
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	return &SessionTable{
		window:      window,
		maxSessions: maxSessions,
		sessions:    make(map[uint64]*sessionState),
	}
}

// Cached returns the stored response for (session, seq), if any, and the
// tenant binding it was produced under; the caller replays it only to a
// connection bound the same way.
func (t *SessionTable) Cached(session, seq uint64) (resp []byte, tenant uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	s, ok := t.sessions[session]
	if !ok {
		t.misses++
		return nil, 0, false
	}
	s.lastUsed = t.clock
	c, ok := s.entries[seq]
	if !ok {
		t.misses++
		return nil, 0, false
	}
	t.hits++
	return c.resp, c.tenant, true
}

// Store records a successful response for (session, seq) and the tenant
// binding it was produced under, evicting the oldest window entry and, if
// a new session pushes the table over its session cap, the
// least-recently-used session.
func (t *SessionTable) Store(session, seq uint64, tenant uint32, resp []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	t.stores++
	s, ok := t.sessions[session]
	if !ok {
		if len(t.sessions) >= t.maxSessions {
			t.evictLRU()
		}
		s = &sessionState{entries: make(map[uint64]cachedResponse, t.window)}
		t.sessions[session] = s
	}
	s.lastUsed = t.clock
	if _, dup := s.entries[seq]; !dup && len(s.order) >= t.window {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, oldest)
	}
	if _, dup := s.entries[seq]; !dup {
		s.order = append(s.order, seq)
	}
	s.entries[seq] = cachedResponse{tenant: tenant, resp: resp}
}

// evictLRU drops the least-recently-used session. Called with t.mu held.
func (t *SessionTable) evictLRU() {
	var victim uint64
	var oldest uint64
	first := true
	for id, s := range t.sessions {
		if first || s.lastUsed < oldest {
			victim, oldest, first = id, s.lastUsed, false
		}
	}
	if !first {
		delete(t.sessions, victim)
		t.evictions++
	}
}

// Sessions returns the number of live sessions.
func (t *SessionTable) Sessions() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// Hits returns how many lookups were answered from the cache — each one
// is a retry that would otherwise have re-executed.
func (t *SessionTable) Hits() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits
}
