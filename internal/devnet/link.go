package devnet

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"net"
	"time"

	"soteria/internal/device"
	"soteria/internal/telemetry"
)

// RetryPolicy governs how a client reacts to retryable failures. Every
// retransmission re-sends the same (session, seq) bytes, so the server's
// dedup window guarantees an operation whose original already committed
// is acknowledged without being applied twice.
type RetryPolicy struct {
	// MaxAttempts caps total attempts per operation. 0 selects the
	// default (5); negative means unlimited (bounded by MaxElapsed).
	MaxAttempts int
	// MaxElapsed caps the wall-clock time spent retrying one operation,
	// backoff waits included. 0 selects the default (30s).
	MaxElapsed time.Duration
	// BaseBackoff is the first retry's wait (default 5ms); each further
	// retry doubles it, capped at MaxBackoff (default 500ms), plus up to
	// 50% seeded jitter so a fleet of retrying clients decorrelates.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// RetryDown also retries ClassDown errors (device crashed / power
	// lost). Only safe in supervised deployments where something will
	// run recovery; otherwise a crashed device retries forever.
	RetryDown bool
}

// retries is the one retryable-class predicate: transport faults,
// backpressure and crash-barrier retirement always, ClassDown on request.
func (p RetryPolicy) retries(c Class) bool {
	return c == ClassTransport || c == ClassBusy || c == ClassRetired || (c == ClassDown && p.RetryDown)
}

// dialTimeout bounds each (re)connection attempt of a client.
const dialTimeout = 5 * time.Second

// Options configures a resilient client.
type Options struct {
	// OpTimeout is the deadline on one burst write (every request frame
	// sealed since the last one, sent in one Write) and on one socket
	// read while a response is awaited; past it the attempt counts as a
	// transport timeout and is retried. Default 30s.
	OpTimeout time.Duration
	// Retry is the retry policy; its zero value selects the defaults.
	Retry RetryPolicy
	// Session identifies this client in the server's dedup window. 0
	// (the default) draws a random non-zero id.
	Session uint64
	// Seed drives backoff jitter; 0 derives it from the session id.
	Seed int64
	// Telemetry, when non-nil, receives the client's resilience counters
	// (devnet_client_*) and the retry-backoff histogram.
	Telemetry *telemetry.Registry
	// Logf, when non-nil, receives reconnect/retry diagnostics.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.OpTimeout <= 0 {
		o.OpTimeout = 30 * time.Second
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry.MaxAttempts = 5
	}
	if o.Retry.MaxElapsed <= 0 {
		o.Retry.MaxElapsed = 30 * time.Second
	}
	if o.Retry.BaseBackoff <= 0 {
		o.Retry.BaseBackoff = 5 * time.Millisecond
	}
	if o.Retry.MaxBackoff <= 0 {
		o.Retry.MaxBackoff = 500 * time.Millisecond
	}
	if o.Session == 0 {
		o.Session = randomSession()
	}
	if o.Seed == 0 {
		o.Seed = int64(o.Session)
	}
}

func randomSession() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// Crypto randomness is best-effort uniqueness, not security;
			// fall back to the wall clock.
			return uint64(time.Now().UnixNano()) | 1
		}
		if v := binary.BigEndian.Uint64(b[:]); v != 0 {
			return v
		}
	}
}

// frame is one sealed request: its sequence number and its wire bytes,
// frame header included, so sending it is one append to the link's
// pending bytes and resending it repeats the original bytes. ops has one
// element per entry of a batch frame and is empty for every other op: the
// link checks a batch response against it, and the Pipe keeps its
// callers' tags there.
type frame struct {
	seq uint64
	buf []byte
	ops []pendOp
}

// link is the one wire transport under both clients: Client is a link
// with a window of one frame, Pipe a link with a window of N. It owns
// everything that is not about which ops a caller wants — the connection
// (dial, redial, drop), deadlines and timeout accounting, the session
// and sequence numbers, the tenant binding and its replay on every new
// connection, the buffered reader and the pooled receive buffer, the
// pending bytes of frames sent but not yet written, the FIFO window of
// sealed frames not answered yet, the single recovery routine with its
// backoff schedule and retry budget, and the two retry rules of the data
// plane (answer for a frame, requeue for an op inside an executed batch).
// Sends wait for the next read that would block: every frame sealed since
// the last write leaves in one Write right before it, so a window of
// frames costs one syscall. Not safe for concurrent use.
type link struct {
	addr string
	opts Options
	// what names the operation under way in OpError and the log.
	what string
	// tenant and token are the binding attachTenant established (tenant 0
	// = unbound). The server binds a connection, not a session, so greet
	// replays it on every replacement connection.
	tenant uint32
	token  uint64

	conn *deadlineConn // nil once dropped
	br   *bufio.Reader // reads conn; reset on every dial
	out  []byte        // sent frames not written yet: a suffix of the window
	seq  uint64
	rng  *mrand.Rand
	rbuf []byte // pooled receive buffer; responses alias it until the next read

	window []*frame // sent and unanswered, oldest first
	free   []*frame // recycled frames

	// failures and failedAt are the retry budget: failures of the oldest
	// unanswered frame since it was last answered, and when the first
	// one happened. ack resets them, so progress refills the budget.
	failures int
	failedAt time.Time

	// resent counts frames written again by recover. For Client a frame
	// is an operation, so it is the retries counter; Pipe points it at
	// its batch-retransmit counter and keeps retries for per-op requeues.
	resent, retries                         *telemetry.Counter
	reconnects, timeouts, busyWaits, gaveUp *telemetry.Counter
	backoffNS                               *telemetry.Histogram
}

var errNoConn = fmt.Errorf("devnet: no connection: %w", net.ErrClosed)

// dialLink fills the option defaults, registers the resilience counters
// and connects. The first connection is made eagerly so an unreachable
// server fails fast; later reconnects happen inside recover.
func dialLink(addr string, opts Options) (*link, error) {
	opts.fill()
	l := &link{addr: addr, opts: opts, rng: mrand.New(mrand.NewSource(opts.Seed)), br: bufio.NewReaderSize(nil, readBufSize)}
	reg := opts.Telemetry
	l.retries = reg.Counter("devnet_client_retries_total")
	l.resent = l.retries
	l.reconnects = reg.Counter("devnet_client_reconnects_total")
	l.timeouts = reg.Counter("devnet_client_timeouts_total")
	l.busyWaits = reg.Counter("devnet_client_busy_waits_total")
	l.gaveUp = reg.Counter("devnet_client_gave_up_total")
	l.backoffNS = reg.Histogram("devnet_client_retry_backoff_ns", telemetry.ExpBounds(40))
	return l, l.dial()
}

// dial connects and resets the reader over the new connection, so no
// byte received on a dropped one is ever parsed.
func (l *link) dial() error {
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
	if err != nil {
		return err
	}
	l.conn = &deadlineConn{Conn: conn, read: l.opts.OpTimeout, write: l.opts.OpTimeout}
	l.br.Reset(l.conn)
	return nil
}

// drop discards a connection recovery no longer trusts, with the bytes
// still pending for it.
func (l *link) drop() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
	l.out = l.out[:0]
}

// close drops the connection and forgets every unanswered frame.
func (l *link) close() {
	l.drop()
	for len(l.window) > 0 {
		l.ack()
	}
}

func (l *link) logf(format string, args ...any) {
	if l.opts.Logf != nil {
		l.opts.Logf(format, args...)
	}
}

// next returns a recycled frame stamped with the next sequence number.
// At most one frame is open (taken but not sent) at a time, so frames
// are sent in sequence order.
func (l *link) next() *frame {
	var f *frame
	if n := len(l.free); n > 0 {
		f, l.free = l.free[n-1], l.free[:n-1]
	} else {
		f = &frame{}
	}
	l.seq++
	f.seq = l.seq
	f.ops = f.ops[:0]
	return f
}

// send puts a sealed frame at the back of the window and its bytes at
// the back of the pending ones. They go out with every other pending
// frame in one Write, right before the link next blocks on a read (or on
// push).
func (l *link) send(f *frame) {
	l.window = append(l.window, f)
	l.out = append(l.out, f.buf...)
}

// push writes the pending frames now rather than at the next blocking
// read. A failed write is recovered here, so an error means the budget
// ran out.
func (l *link) push() error {
	for {
		err := l.flush()
		if err == nil {
			return nil
		}
		if err = l.recover(err); err != nil {
			return err
		}
	}
}

// answer returns the StatusOK response to the oldest unanswered frame,
// recovering the link for as long as the budget allows: a transport
// failure, a malformed response (a batch body is checked whole against
// the frame's entries, so a caller never acts on half a batch) and a
// retryable status (nothing in the frame executed) all retransmit it with
// the SAME sequence number. A non-nil error is a non-retryable status,
// which leaves the link usable, or the exhausted budget's *OpError.
// Either way the caller settles the frame with ack.
func (l *link) answer() (wireResponse, error) {
	for {
		f := l.window[0]
		resp, cause := l.read(f.seq)
		if cause == nil {
			cause = statusError(resp.status, resp.body)
		}
		if cause == nil && len(f.ops) > 0 {
			cause = validateBatchResponse(f, resp.body)
		}
		if cause == nil {
			return resp, nil
		}
		if !l.retryable(cause) {
			return wireResponse{}, cause
		}
		if err := l.recover(cause); err != nil {
			return wireResponse{}, err
		}
	}
}

// exchange is one stop-and-wait round over an idle link: send the sealed
// frame, return its answer. The response body aliases the receive buffer
// and is valid until the next read.
func (l *link) exchange(f *frame) (wireResponse, error) {
	defer l.ack() // answered or given up on, the frame leaves the window
	l.send(f)
	return l.answer()
}

// requeue is the retry rule for one op that came back with derr inside an
// executed batch. The batch sits in the server's dedup window with that
// failure in it, so its sequence number could only replay it: an op the
// policy retries goes out again under a NEW one after the returned
// backoff, charged to the op's own budget (MaxAttempts sends, MaxElapsed
// since its first failure). Otherwise the error is the op's final
// outcome, wrapped in *OpError if the budget ran out. The batch arrived
// over a sound stream, so a per-op status the decoder rejects is the op's
// own failure, not a reason to resend.
func (l *link) requeue(op *pendOp, derr error) (time.Duration, error) {
	class := ClassOf(derr)
	if class == ClassTransport || !l.retryable(derr) {
		return 0, derr
	}
	if op.attempts == 1 {
		op.failedAt = time.Now()
	}
	pol := l.opts.Retry
	wait := l.backoff(op.attempts, derr)
	if elapsed := time.Since(op.failedAt); (pol.MaxAttempts > 0 && op.attempts >= pol.MaxAttempts) || elapsed+wait > pol.MaxElapsed {
		l.gaveUp.Inc()
		return 0, &OpError{Op: batchOpName(op.op), Attempts: op.attempts, Elapsed: elapsed, Err: derr}
	}
	if class == ClassBusy {
		l.busyWaits.Inc()
	}
	l.retries.Inc()
	op.attempts++
	return wait, nil
}

// appendAttach renders a sealed OpTenantAttach frame into buf.
func appendAttach(buf []byte, session, seq uint64, id uint32, token uint64) []byte {
	tf := TenantFrame{Op: OpTenantAttach, Tenant: id, Token: token}
	buf = append(newRequestFrame(buf, OpTenantAttach, session, seq), tf.Encode()...)
	sealFrame(buf)
	return buf
}

// attachTenant binds the idle link's connection to tenant id: every batch
// frame sent from now on runs in that tenant's space. The binding is
// remembered and replayed on every replacement connection (greet).
func (l *link) attachTenant(id uint32, token uint64) error {
	f := l.next()
	f.buf = appendAttach(f.buf, l.opts.Session, f.seq, id, token)
	_, err := l.exchange(f)
	if err != nil {
		// The server leaves a connection whose attach failed unbound.
		id, token = 0, 0
	}
	l.tenant, l.token = id, token
	return err
}

// greet runs on every replacement connection before anything is
// retransmitted over it: it replays the tenant binding, or the server
// would deny the batches the retransmission is trying to land. Session 0
// and sequence 0: the attach must execute on this connection (the server
// keeps it out of the dedup window anyway), and it is not one of the
// link's numbered frames.
func (l *link) greet() error {
	if l.tenant == 0 {
		return nil
	}
	l.out = appendAttach(l.out, 0, 0, l.tenant, l.token) // a fresh connection has nothing pending
	resp, err := l.read(0)
	if err != nil {
		return err
	}
	return statusError(resp.status, resp.body)
}

// ack retires the answered head of the window and refills the budget.
func (l *link) ack() {
	l.free = append(l.free, l.window[0])
	copy(l.window, l.window[1:])
	l.window = l.window[:len(l.window)-1]
	l.failures = 0
}

// flush writes the pending frames in one Write under the op deadline.
func (l *link) flush() error {
	if len(l.out) == 0 {
		return nil
	}
	if l.conn == nil {
		return errNoConn
	}
	_, err := l.conn.Write(l.out)
	l.out = l.out[:0]
	if err != nil {
		return l.noteTimeout(fmt.Errorf("devnet: send: %w", err))
	}
	return nil
}

// read receives one response and checks that it answers sequence number
// want. A response not already whole in the buffer means blocking, so
// the pending frames go out first; each socket read runs under the op
// deadline.
func (l *link) read(want uint64) (wireResponse, error) {
	if l.conn == nil {
		return wireResponse{}, errNoConn
	}
	if !frameBuffered(l.br) {
		if err := l.flush(); err != nil {
			return wireResponse{}, err
		}
	}
	payload, err := readFrameInto(l.br, &l.rbuf)
	if err != nil {
		return wireResponse{}, l.noteTimeout(fmt.Errorf("devnet: receive: %w", err))
	}
	resp, err := parseResponse(payload)
	if err == nil && resp.seq != want {
		err = &FrameError{Reason: fmt.Sprintf("response for sequence %d, want %d", resp.seq, want)}
	}
	return resp, err
}

// noteTimeout counts deadline expirations for the resilience report.
func (l *link) noteTimeout(err error) error {
	if isTimeout(err) {
		l.timeouts.Inc()
	}
	return err
}

// retryable reports whether the policy retries err.
func (l *link) retryable(err error) bool { return l.opts.Retry.retries(ClassOf(err)) }

// backoff is the one backoff schedule: the wait before attempt+1, the
// base doubled per earlier attempt and stretched to the server's
// retry-after hint when that is longer, both capped at MaxBackoff.
func (l *link) backoff(attempt int, cause error) time.Duration {
	pol := l.opts.Retry
	w := pol.BaseBackoff
	for a := 1; a < attempt && w < pol.MaxBackoff; a++ {
		w *= 2
	}
	var busy *device.BusyError
	if errors.As(cause, &busy) && busy.RetryAfter > w {
		w = busy.RetryAfter
	}
	return min(w, pol.MaxBackoff)
}

// sleep waits out a backoff plus up to 50% seeded jitter.
func (l *link) sleep(wait time.Duration) {
	wait += time.Duration(l.rng.Int63n(int64(wait/2) + 1))
	l.backoffNS.Observe(uint64(wait))
	time.Sleep(wait)
}

// recover is the one recovery routine. cause is what went wrong with the
// oldest unanswered frame: a transport failure, or a retryable status in
// its response. The connection is dropped when the stream can no longer
// be trusted, or when later frames ride behind the failed one (their
// responses would arrive out of step with the retransmission; dropping
// also stops the old server handler promptly). Then: back off, redial if
// needed, greet the new connection, and retransmit every unanswered frame
// in order (go-back-N) — the server's dedup window answers any that
// already executed from cache. Each pass charges the budget; a non-nil
// return is the *OpError of an exhausted budget, or a non-retryable
// error from the greeting.
func (l *link) recover(cause error) error {
	pol := l.opts.Retry
	for {
		class := ClassOf(cause)
		if class == ClassTransport || len(l.window) > 1 {
			l.drop()
		}
		if l.failures == 0 {
			l.failedAt = time.Now()
		}
		l.failures++
		wait := l.backoff(l.failures, cause)
		if elapsed := time.Since(l.failedAt); (pol.MaxAttempts > 0 && l.failures >= pol.MaxAttempts) || elapsed+wait > pol.MaxElapsed {
			l.gaveUp.Inc()
			return &OpError{Op: l.what, Attempts: l.failures, Elapsed: elapsed, Err: cause}
		}
		if class == ClassBusy {
			l.busyWaits.Inc()
		}
		l.logf("devnet: %s attempt %d failed (%s: %v), retrying in %v", l.what, l.failures, class, cause, wait)
		l.sleep(wait)
		if cause = l.retransmit(); cause == nil {
			return nil
		}
		if !l.retryable(cause) {
			return cause
		}
	}
}

// retransmit sends every unanswered frame again, over a replacement
// connection (greeted first) if the old one was dropped. The pending
// bytes are a suffix of the window, so they are discarded and the whole
// window queued afresh; it goes out at the next read.
func (l *link) retransmit() error {
	if l.conn == nil {
		if err := l.dial(); err != nil {
			return err
		}
		l.reconnects.Inc()
		l.logf("devnet: reconnected to %s", l.addr)
		if err := l.greet(); err != nil {
			// Unbound is worse than absent: the next pass redials and
			// greets again rather than retransmitting over this one.
			l.drop()
			return err
		}
	}
	l.out = l.out[:0]
	for _, f := range l.window {
		l.out = append(l.out, f.buf...)
		l.resent.Inc()
	}
	return nil
}
