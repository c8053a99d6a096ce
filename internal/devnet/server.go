package devnet

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"soteria/internal/device"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
	"soteria/internal/tenant"
)

// burstWriteTimeout bounds one burst write of a served connection: the
// responses it holds, sent in one Write.
const burstWriteTimeout = 10 * time.Second

// ServerOptions harden one server against misbehaving peers and
// overload. The zero value selects production-shaped defaults; tests
// shrink the read-side timeouts to keep regression runs fast. A burst
// write is always bounded by burstWriteTimeout.
type ServerOptions struct {
	// ReadStall bounds the gap between consecutive bytes of one frame
	// once its first byte has arrived: a peer that stalls mid-frame is
	// disconnected, a slow-but-moving peer is not. Default 5s.
	ReadStall time.Duration
	// IdleTimeout bounds how long a connection may sit between requests
	// before it is dropped (half-dead peers cannot pin a goroutine
	// forever). Default 2 minutes; negative disables.
	IdleTimeout time.Duration
	// MaxInFlight caps concurrently executing requests server-wide;
	// excess requests are shed with StatusBusy and a retry-after hint
	// instead of queueing without bound. Default 64; negative disables.
	MaxInFlight int
	// Sessions is the idempotency window. Nil builds a private table; a
	// supervisor that restarts the server passes the same table to the
	// replacement so retries straddling the restart stay exactly-once.
	Sessions *SessionTable
	// Telemetry, when non-nil, receives the server's own resilience
	// counters (devnet_server_*). It is kept separate from the device's
	// registries so wire snapshots stay byte-identical to local ones.
	Telemetry *telemetry.Registry
	// Tenants, when non-nil, enables the tenant plane (OpTenantAttach and
	// friends) against this multi-tenant service: batch frames on a
	// connection bound to a tenant run through it. The flat device may
	// then be nil, in which case unbound batch frames are denied and info,
	// snapshot and Health describe the service's device.
	Tenants *tenant.Service
	// Logf, when non-nil, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

func (o *ServerOptions) fill() {
	if o.ReadStall <= 0 {
		o.ReadStall = 5 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 64
	}
	if o.Sessions == nil {
		o.Sessions = NewSessionTable(0, 0)
	}
}

// Health is the server's readiness, which cmd/soteria-serve serves on
// its HTTP /readyz endpoint.
type Health struct {
	// Ready: accepting connections and the device is up.
	Ready bool `json:"ready"`
	// Draining: a graceful shutdown is in progress.
	Draining bool `json:"draining"`
	// DeviceDown: the device crashed (or lost power) and awaits recovery.
	DeviceDown bool `json:"device_down"`
	// InFlight is the number of requests currently executing.
	InFlight int `json:"in_flight"`
	// Sessions is the dedup table occupancy.
	Sessions int `json:"sessions"`
	// Shards is the device shard count.
	Shards int `json:"shards"`
}

// Server serves one device over TCP. Connections are handled
// concurrently; requests on one connection are sequential (the protocol
// is strict request/response), so each connection behaves as one
// closed-loop client — the regime under which the device is
// deterministic. Each connection handler is panic-isolated and bounded
// by read/write deadlines, and a server-wide in-flight cap sheds load
// with typed backpressure instead of queueing without bound.
type Server struct {
	dev  *device.Device
	ctl  control
	opts ServerOptions
	ln   net.Listener

	sessions *SessionTable
	inflight atomic.Int64

	mu       sync.Mutex
	draining bool
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	connsTotal    *telemetry.Counter
	shed          *telemetry.Counter
	panics        *telemetry.Counter
	dedupHits     *telemetry.Counter
	frameErrors   *telemetry.Counter
	idleDrops     *telemetry.Counter
	stallDrops    *telemetry.Counter
	appliedWrites *telemetry.Counter
}

// control is what the introspection ops (info, snapshot) and Health
// read: the flat device, or on a tenant-only server the device under the
// tenant service.
type control interface {
	Info() device.Info
	Down() bool
	Snapshot() *telemetry.Snapshot
}

// tenantControl adapts a tenant service to control: its own Info and
// Snapshot describe one tenant, the device-wide ones carry other names.
type tenantControl struct{ *tenant.Service }

func (t tenantControl) Info() device.Info             { return t.DeviceInfo() }
func (t tenantControl) Snapshot() *telemetry.Snapshot { return t.DeviceSnapshot() }

// NewServer wraps a device with default hardening options. The caller
// keeps ownership of the device: Shutdown stops serving but does not
// Close it.
func NewServer(dev *device.Device) *Server {
	return NewServerWith(dev, ServerOptions{})
}

// NewServerWith wraps a device with explicit hardening options.
func NewServerWith(dev *device.Device, opts ServerOptions) *Server {
	opts.fill()
	s := &Server{dev: dev, opts: opts, sessions: opts.Sessions, conns: map[net.Conn]struct{}{}}
	// The control target is picked once; with neither a device nor a
	// tenant service it stays nil and only ping and Health answer.
	if dev != nil {
		s.ctl = dev
	} else if opts.Tenants != nil {
		s.ctl = tenantControl{opts.Tenants}
	}
	reg := opts.Telemetry
	s.connsTotal = reg.Counter("devnet_server_conns_total")
	s.shed = reg.Counter("devnet_server_shed_total")
	s.panics = reg.Counter("devnet_server_handler_panics_total")
	s.dedupHits = reg.Counter("devnet_server_dedup_hits_total")
	s.frameErrors = reg.Counter("devnet_server_frame_errors_total")
	s.idleDrops = reg.Counter("devnet_server_idle_drops_total")
	s.stallDrops = reg.Counter("devnet_server_stall_drops_total")
	s.appliedWrites = reg.Counter("devnet_server_applied_writes_total")
	return s
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Shutdown/Abort won the race before this listener was
		// registered; close it here or it would leak (still bound) with
		// nobody left to close it.
		ln.Close()
		return net.ErrClosed
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.connsTotal.Inc()
		go s.serveConn(conn)
	}
}

// Shutdown drains gracefully: stop accepting, let every in-flight request
// finish, then close the connections. The device itself is left running.
func (s *Server) Shutdown() {
	s.stopAccepting()
	s.wg.Wait()
}

// stopAccepting marks the server draining, closes the listener and
// returns the connections live at that moment.
func (s *Server) stopAccepting() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.draining = true
	if s.ln != nil {
		s.ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// Abort is the non-graceful sibling of Shutdown: stop accepting and
// sever every connection immediately (RST where the platform allows),
// as a process kill would. Requests already executing still finish —
// their responses just never reach the peer — so by the time Abort
// returns no handler is touching the device and a supervisor may Crash
// it. The dedup table survives for the replacement server.
func (s *Server) Abort() {
	for _, c := range s.stopAccepting() {
		hardClose(c)
	}
	s.wg.Wait()
}

// hardClose severs a connection abruptly: linger 0 turns the close into
// a reset instead of an orderly FIN, which is what a dying process does.
func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// Health reports the server's readiness.
func (s *Server) Health() Health {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	down, shards := false, 0
	if s.ctl != nil {
		down, shards = s.ctl.Down(), s.ctl.Info().Shards
	}
	return Health{
		Ready:      !draining && !down,
		Draining:   draining,
		DeviceDown: down,
		InFlight:   int(s.inflight.Load()),
		Sessions:   s.sessions.Sessions(),
		Shards:     shards,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// serveConn runs the request loop for one connection. Requests are read
// through a buffer and executed in order; their responses are held and
// leave in one Write per burst — when the next request is not already
// whole in the buffer, when the held bytes reach frameChunk, and before
// the loop exits — so a pipelined window costs one socket read and one
// write instead of two of each per frame, and a drain still answers every
// request that executed. Waiting for a request polls with a short
// deadline so a drain is noticed between requests and an idle budget can
// expire; once a frame starts arriving, the stall deadline takes over. A
// panic anywhere in the loop takes down only this connection.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			s.logf("devnet: %v connection panic: %v", conn.RemoteAddr(), p)
		}
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	s.logf("devnet: %v connected", conn.RemoteAddr())
	dc := &deadlineConn{Conn: conn, write: burstWriteTimeout}
	br := bufio.NewReaderSize(dc, readBufSize)
	// bound is this connection's authenticated tenant (0 = none). It is
	// per-connection on purpose: a binding must not outlive the transport
	// that proved possession of the token.
	var bound uint32
	// Per-connection receive, response and batch scratch: the request
	// loop reuses all three across frames, so a steady stream of batches
	// costs no per-frame allocations on the server.
	var rbuf, out []byte
	var bs batchScratch
	for {
		if len(out) >= frameChunk || len(out) > 0 && !frameBuffered(br) {
			if _, err := dc.Write(out); err != nil {
				s.logf("devnet: %v write: %v", conn.RemoteAddr(), err)
				return
			}
			out = out[:0]
		}
		if err := s.awaitHeader(dc, br); err != nil {
			s.logf("devnet: %v gone: %v", conn.RemoteAddr(), err)
			break
		}
		dc.read = s.opts.ReadStall
		payload, err := readFrameInto(br, &rbuf)
		if err != nil {
			var fe *FrameError
			if errors.As(err, &fe) {
				s.frameErrors.Inc()
			}
			if isTimeout(err) {
				s.stallDrops.Inc()
			}
			s.logf("devnet: %v bad frame: %v", conn.RemoteAddr(), err)
			break
		}
		out = appendFrame(out, s.dispatch(payload, &bound, &bs))
	}
	if len(out) > 0 {
		if _, err := dc.Write(out); err != nil {
			s.logf("devnet: %v write: %v", conn.RemoteAddr(), err)
		}
	}
}

// awaitHeader blocks until a full frame header is buffered, the idle
// budget expires, or the server drains; the drain is checked first, so a
// draining server executes nothing more even when requests are buffered.
// The wait polls in short slices so a drain is honored promptly; once the
// first byte is in, the peer is mid-frame and the stall rule applies to
// the header's remainder.
func (s *Server) awaitHeader(dc *deadlineConn, br *bufio.Reader) error {
	const poll = 250 * time.Millisecond
	idleDeadline := time.Now().Add(s.opts.IdleTimeout)
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return errors.New("draining")
		}
		got := br.Buffered()
		if got >= frameHeaderSize {
			return nil
		}
		dc.read = poll
		if got > 0 && s.opts.ReadStall < poll {
			dc.read = s.opts.ReadStall
		}
		// Peeking one byte past the buffered ones is exactly one socket
		// read, which takes everything that has arrived.
		_, err := br.Peek(got + 1)
		if err == nil {
			continue
		}
		if !isTimeout(err) {
			return err
		}
		// Timeout slice with nothing read. Mid-header, a single stall
		// window is the whole budget; idle (no bytes yet) runs down
		// IdleTimeout.
		if got > 0 {
			s.stallDrops.Inc()
			return fmt.Errorf("peer stalled mid-header after %d bytes", got)
		}
		if s.opts.IdleTimeout >= 0 && time.Now().After(idleDeadline) {
			s.idleDrops.Inc()
			return fmt.Errorf("idle for %v", s.opts.IdleTimeout)
		}
	}
}

// dispatch parses one request payload, applies the dedup window and the
// in-flight cap, and executes it panic-isolated. bound is the calling
// connection's tenant binding; bs is its reusable batch scratch.
func (s *Server) dispatch(payload []byte, bound *uint32, bs *batchScratch) []byte {
	req, err := parseRequest(payload)
	if err != nil {
		s.frameErrors.Inc()
		return respErr(0, err)
	}
	// Attach mutates per-connection state, so it must execute on every
	// connection that sends it — a dedup hit replaying a cached OK
	// without binding would leave the new connection unauthenticated.
	if req.session != 0 && req.op != OpTenantAttach {
		if cached, owner, ok := s.sessions.Cached(req.session, req.seq); ok {
			// A session id is not a credential: a response is replayed only
			// to a connection bound like the one that earned it. A genuine
			// retransmit qualifies, because the link re-attaches before it
			// resends anything.
			if owner != *bound {
				return respFromErr(req.seq, &tenant.AuthError{Tenant: *bound})
			}
			s.dedupHits.Inc()
			return cached
		}
	}
	if s.opts.MaxInFlight > 0 {
		if n := s.inflight.Add(1); n > int64(s.opts.MaxInFlight) {
			s.inflight.Add(-1)
			s.shed.Inc()
			return respFromErr(req.seq, &device.BusyError{
				Shard:      -1,
				Pending:    int(n - 1),
				RetryAfter: time.Duration(n) * 100 * time.Microsecond,
			})
		}
		defer s.inflight.Add(-1)
	}
	resp := s.handleSafe(req, bound, bs)
	// Only successful responses enter the dedup window: a failure did
	// not commit, so the retry must re-execute. Attach stays out for the
	// same reason it skips the lookup above. A StatusOK batch ALWAYS
	// enters the window even though some of its per-op results may be
	// failures: the batch executed, and a retransmit must replay the
	// identical per-op outcomes rather than re-executing anything.
	if req.session != 0 && req.op != OpTenantAttach && len(resp) > 0 && resp[0] == StatusOK {
		if req.op == OpBatch {
			// The batch response aliases per-connection scratch the next
			// batch overwrites; the dedup window needs its own copy (one
			// allocation per batch, amortized across its ops).
			resp = append([]byte(nil), resp...)
		}
		s.sessions.Store(req.session, req.seq, *bound, resp)
	}
	return resp
}

// handleSafe confines a handler panic to an error response, keeping the
// connection (and every other connection) alive.
func (s *Server) handleSafe(req wireRequest, bound *uint32, bs *batchScratch) (resp []byte) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Inc()
			s.logf("devnet: handler panic on op %d: %v", req.op, p)
			resp = respErr(req.seq, fmt.Errorf("internal: handler panic: %v", p))
		}
	}()
	if req.op == OpBatch {
		return s.handleBatch(req, *bound, bs)
	}
	if tenantBodyLen(req.op) >= 0 {
		return s.handleTenant(req, bound)
	}
	return s.handle(req)
}

// handle executes one introspection request against the control target
// and builds the response payload.
func (s *Server) handle(req wireRequest) []byte {
	op, seq := req.op, req.seq
	switch op {
	case OpPing:
		return respOK(seq, 0, nil)
	case OpInfo:
		return respJSON(seq, s.ctl.Info())
	case OpSnapshot:
		return respSnapshot(seq, s.ctl.Snapshot())
	default:
		return respErr(seq, fmt.Errorf("unknown op %d", op))
	}
}

func respHeader(status uint8, seq uint64, lat sim.Time, bodyCap int) []byte {
	out := make([]byte, 0, respHeaderSize+bodyCap)
	out = append(out, status)
	out = putU64(out, seq)
	return putU64(out, uint64(lat))
}

func respOK(seq uint64, lat sim.Time, body []byte) []byte {
	return append(respHeader(StatusOK, seq, lat, len(body)), body...)
}

func respErr(seq uint64, err error) []byte {
	return append(respHeader(StatusError, seq, 0, len(err.Error())), err.Error()...)
}

// respJSON answers with v's JSON rendering.
func respJSON(seq uint64, v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return respErr(seq, err)
	}
	return respOK(seq, 0, data)
}

// respSnapshot answers with a telemetry snapshot in its canonical JSON
// rendering (byte-identical to a local MarshalIndentJSON).
func respSnapshot(seq uint64, snap *telemetry.Snapshot) []byte {
	data, err := snap.MarshalIndentJSON()
	if err != nil {
		return respErr(seq, err)
	}
	return respOK(seq, 0, data)
}

// respFromErr answers with err's wire status and typed body.
func respFromErr(seq uint64, err error) []byte {
	var tmp [16]byte
	status, body := encodeErr(err, tmp[:0])
	return append(respHeader(status, seq, 0, len(body)), body...)
}

// batchScratch is one connection's reusable batch-execution state:
// decoded ops, per-op results, and the response buffer. Reuse makes the
// steady-state batch path allocation-free on the server.
type batchScratch struct {
	ops  []device.BatchOp
	res  []device.BatchResult
	resp []byte
}

// handleBatch executes one OpBatch frame — the only way a data op
// arrives: decode into the connection's scratch, run the batch, encode
// the per-op outcomes. The connection's tenant binding picks the
// executor, one branch per frame: unbound, the whole batch goes through
// the flat device as one unit (per-shard coalesced groups, one lock hold
// per shard — device.ExecBatch); bound, each entry goes through the
// tenant service in the bound tenant's space. The response header is
// StatusOK whenever the batch executed; individual failures (quota,
// fair-share and integrity included) ride inside as per-op status/body
// pairs. Nothing executes under a batch-level failure: the in-flight cap
// sheds the whole frame with StatusBusy before this handler runs, a
// malformed body is StatusError, and an unbound frame on a server without
// a flat device is StatusTenantDenied (every line there belongs to some
// tenant's key domain).
func (s *Server) handleBatch(req wireRequest, bound uint32, bs *batchScratch) []byte {
	if bound == 0 && s.dev == nil {
		return respFromErr(req.seq, &tenant.AuthError{})
	}
	if bs == nil {
		bs = &batchScratch{}
	}
	ops, err := decodeBatchOps(req.body, bs.ops)
	if err != nil {
		s.frameErrors.Inc()
		return respErr(req.seq, err)
	}
	bs.ops = ops
	if cap(bs.res) < len(ops) {
		bs.res = make([]device.BatchResult, len(ops))
	}
	res := bs.res[:len(ops)]
	if bound != 0 {
		s.execTenantBatch(bound, ops, res)
	} else if err := s.dev.ExecBatch(ops, res); err != nil {
		return respFromErr(req.seq, err)
	}
	out := bs.resp[:0]
	out = append(out, StatusOK)
	out = putU64(out, req.seq)
	out = putU64(out, 0) // latency is per-op inside the body
	out = putU32(out, uint32(len(ops)))
	for i := range res {
		if res[i].Err != nil {
			out = appendBatchErr(out, res[i].Err)
			continue
		}
		if ops[i].Op == device.BatchWrite {
			// The exactly-once oracle counts writes the device applied;
			// a dedup-replayed batch never reaches this loop.
			s.appliedWrites.Inc()
		}
		var body []byte
		if ops[i].Op == device.BatchRead {
			body = res[i].Data[:]
		}
		out = appendBatchResult(out, StatusOK, uint64(res[i].Latency), body)
	}
	bs.resp = out
	return out
}

// execTenantBatch runs a bound connection's batch entry by entry through
// the tenant service, addresses tenant-local. A drain acknowledges
// without touching the device: the tenant layer holds no write back, so
// every write it acknowledged is already durable.
func (s *Server) execTenantBatch(id uint32, ops []device.BatchOp, res []device.BatchResult) {
	svc := s.opts.Tenants
	for i := range ops {
		r := &res[i]
		*r = device.BatchResult{}
		switch ops[i].Op {
		case device.BatchRead:
			r.Data, r.Latency, r.Err = svc.Read(id, ops[i].Addr)
		case device.BatchWrite:
			r.Latency, r.Err = svc.Write(id, ops[i].Addr, &ops[i].Line)
		}
	}
}

// appendBatchErr appends one failed per-op result: the same wire status
// and typed body respFromErr sends, in the batch-result framing.
func appendBatchErr(out []byte, err error) []byte {
	var tmp [16]byte
	status, body := encodeErr(err, tmp[:0])
	return appendBatchResult(out, status, 0, body)
}
