package devnet

import (
	"errors"
	"fmt"
	"time"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// PipeOptions configures a pipelined client.
type PipeOptions struct {
	Options

	// Window is how many sealed batches may be awaiting responses at
	// once. Default 8; clamped to the server's default dedup window so a
	// go-back-N retransmit can always be answered from cache.
	Window int
	// MaxBatch caps ops per batch frame; a full batch is sealed and sent
	// automatically. Default 64.
	MaxBatch int
}

// PipeHandler receives the outcome of one submitted op. data is non-nil
// only for a successful BatchRead and aliases the receive buffer: it is
// valid only for the duration of the call (copy it to keep it). lat is
// the simulated device latency. err, when non-nil, is the same typed
// error surface a stop-and-wait Client returns; an op that exhausted its
// retry budget arrives wrapped in *OpError.
type PipeHandler func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error)

// pendOp tracks one submitted op: the caller's tag, the op code, which
// send this is and when the first one failed (the op's retry budget, see
// link.requeue), and the byte span [off, off+n) of its encoded entry
// inside its batch's buffer so a retry can re-transcribe it without
// re-encoding.
type pendOp struct {
	tag      uint64
	op       uint8
	attempts int
	failedAt time.Time
	off, n   int
}

// retryQueue accumulates ops that failed retryably inside an executed
// batch. Entry bytes are copied out of the dying batch's buffer so the
// batch can be recycled immediately.
type retryQueue struct {
	ops []pendOp
	buf []byte
}

// Pipe is a pipelined batched client: ops are submitted asynchronously,
// packed into OpBatch frames, and up to Window frames ride the
// connection at once, so throughput is bounded by the wire and the
// device instead of by round-trips. Outcomes are delivered to the
// PipeHandler exactly once per submitted op, in batch order.
//
// A Pipe is a link with a window of N frames, so resilience is the
// link's, shared with the stop-and-wait Client, at two levels:
//
//   - A transport failure, a sequence mismatch, a malformed response or
//     a batch-level retryable status goes to the link's recovery
//     (link.answer), which retransmits every unanswered batch in order
//     (go-back-N). The server's dedup window replays results for any
//     batch that already executed, so retransmits never re-apply writes.
//     These count as devnet_client_batch_retransmits_total, NOT as op
//     retries.
//   - An op that failed retryably inside an executed batch (shard busy,
//     tenant fair-share gate, retired by a crash, down with RetryDown)
//     was never applied; link.requeue sends it into a later batch under a
//     NEW sequence number after the link's backoff. Only these increment
//     devnet_client_retries_total.
//
// After AttachTenant the same ops run in a tenant's space, addresses
// tenant-local.
//
// A Pipe is not safe for concurrent use; everything (including handler
// callbacks) runs on the calling goroutine. Responses in one batch are
// delivered before the next batch's, but ops in flight concurrently are
// unordered relative to each other on the server — callers that need
// read-your-write per key must not have two ops for the same key in
// flight at once.
type Pipe struct {
	l        *link
	window   int
	maxBatch int
	h        PipeHandler
	err      error // sticky fatal error; set once, delivered to all pending ops

	cur *frame // open batch accepting Submits (nil when empty)

	// Double-buffered retry queues: deliver() appends to retry while
	// flushRetries drains the other, so a retry queued during a nested
	// receive never corrupts the drain in progress.
	retry      retryQueue
	retrySpare retryQueue
	retryWait  time.Duration // max backoff owed before the next retry flush
}

var errPipeClosed = errors.New("devnet: pipe closed")

// DialPipe connects a pipelined client. The handler is required; the
// first connection is established eagerly.
func DialPipe(addr string, h PipeHandler, opts PipeOptions) (*Pipe, error) {
	if h == nil {
		return nil, errors.New("devnet: DialPipe requires a handler")
	}
	p := &Pipe{window: opts.Window, maxBatch: opts.MaxBatch, h: h}
	if p.window <= 0 {
		p.window = 8
	}
	// More batches in flight than the server keeps responses per session
	// and a go-back-N retransmit could miss the cache and re-execute a
	// committed batch.
	p.window = min(p.window, defaultDedupWindow)
	if p.maxBatch <= 0 {
		p.maxBatch = 64
	}
	p.maxBatch = min(p.maxBatch, maxBatchOps)
	l, err := dialLink(addr, opts.Options)
	if err != nil {
		return nil, err
	}
	l.what = "pipeline"
	l.resent = opts.Telemetry.Counter("devnet_client_batch_retransmits_total")
	p.l = l
	return p, nil
}

// AttachTenant authenticates the pipe's connection as tenant id, after
// driving everything already submitted to its outcome: every op submitted
// afterwards takes a tenant-local address and runs in the tenant's space.
// The link re-attaches after every reconnect, before it retransmits.
func (p *Pipe) AttachTenant(id uint32, token uint64) error {
	if err := p.Flush(); err != nil {
		return err
	}
	return p.l.attachTenant(id, token)
}

// Submit enqueues one op. op is a device.Batch* code; line is required
// for BatchWrite. A batch is sealed when it fills. Sealed batches reach
// the wire together, in one Write, when the pipe next blocks on a
// response (in Wait, Flush, or a Submit that finds the window full) or
// on Kick. The op's outcome arrives via the handler during a later
// Submit, Kick, Wait, or Flush call. A non-nil return means the pipe has
// failed fatally (the handler has already seen every pending op's error).
func (p *Pipe) Submit(tag uint64, op uint8, addr uint64, line *nvm.Line) error {
	if p.err != nil {
		return p.err
	}
	switch op {
	case device.BatchRead, device.BatchDrain:
	case device.BatchWrite:
		if line == nil {
			return errors.New("devnet: Submit: write without a line")
		}
	default:
		return fmt.Errorf("devnet: Submit: unknown batch op %d", op)
	}
	if len(p.retry.ops) > 0 {
		if err := p.flushRetries(); err != nil {
			return err
		}
	}
	b := p.ensureCur()
	off := len(b.buf)
	b.buf = appendBatchOp(b.buf, op, addr, line)
	b.ops = append(b.ops, pendOp{tag: tag, op: op, attempts: 1, off: off, n: len(b.buf) - off})
	if len(b.ops) >= p.maxBatch {
		return p.seal()
	}
	return nil
}

// Kick seals the open batch (if any), after flushing any owed retries,
// and writes every sealed batch not yet on the wire, without waiting for
// responses.
func (p *Pipe) Kick() error {
	if p.err != nil {
		return p.err
	}
	if err := p.flushRetries(); err != nil {
		return err
	}
	if err := p.seal(); err != nil {
		return err
	}
	if err := p.l.push(); err != nil {
		return p.fail(err)
	}
	return nil
}

// Wait makes progress: it seals pending work if nothing is in flight,
// then receives one batch's responses (delivering their outcomes). Use
// it to pace an open loop — e.g. spin Wait until a busy slot frees.
func (p *Pipe) Wait() error {
	if p.err != nil {
		return p.err
	}
	if len(p.l.window) == 0 {
		if err := p.flushRetries(); err != nil {
			return err
		}
		if err := p.seal(); err != nil {
			return err
		}
	}
	return p.recvOne()
}

// Flush drives everything submitted so far — current batch, in-flight
// batches, queued retries — to a delivered outcome.
func (p *Pipe) Flush() error {
	for {
		if p.err != nil {
			return p.err
		}
		if !p.pending() {
			return nil
		}
		if err := p.Wait(); err != nil {
			return err
		}
	}
}

// pending reports whether any submitted op still awaits its outcome.
func (p *Pipe) pending() bool {
	return len(p.l.window) > 0 || (p.cur != nil && len(p.cur.ops) > 0) || len(p.retry.ops) > 0
}

// Close tears the pipe down. Pending ops (if any) are failed to the
// handler; call Flush first for a clean shutdown.
func (p *Pipe) Close() error {
	if p.err == nil {
		p.fail(errPipeClosed)
	}
	return nil
}

// ensureCur returns the open batch, taking the link's next frame if none
// is open.
func (p *Pipe) ensureCur() *frame {
	if p.cur == nil {
		p.cur = p.l.next()
		p.cur.buf = newBatchFrame(p.cur.buf, p.l.opts.Session)
	}
	return p.cur
}

// seal closes the open batch, waits for window space, and sends it: its
// bytes join the link's pending ones (link.send).
func (p *Pipe) seal() error {
	b := p.cur
	if b == nil || len(b.ops) == 0 {
		return nil
	}
	for len(p.l.window) >= p.window {
		if err := p.recvOne(); err != nil {
			return err
		}
	}
	p.cur = nil
	sealBatchFrame(b.buf, b.seq, len(b.ops))
	p.l.send(b)
	return nil
}

// recvOne receives and delivers the oldest in-flight batch's responses.
// Returns only the pipe's fatal error: a batch-level status retrying
// cannot help (nothing in the frame executed), or the link's exhausted
// retry budget.
func (p *Pipe) recvOne() error {
	if p.err != nil || len(p.l.window) == 0 {
		return p.err
	}
	resp, err := p.l.answer()
	if err != nil {
		return p.fail(err)
	}
	p.deliver(p.l.window[0], resp.body)
	p.l.ack()
	return nil
}

// validateBatchResponse checks a StatusOK batch body end to end before
// anything acts on it, so a malformed response never delivers a partial
// batch (recovery would then replay it and double-deliver): count matches
// the batch, every entry parses, read bodies are line-sized.
func validateBatchResponse(b *frame, body []byte) error {
	it, err := parseBatchResults(body)
	if err != nil {
		return err
	}
	if int(it.n) != len(b.ops) {
		return &FrameError{Reason: fmt.Sprintf("batch: response has %d results, want %d", it.n, len(b.ops))}
	}
	for i := range b.ops {
		st, _, obody, err := it.next()
		if err != nil {
			return err
		}
		if st == StatusOK && b.ops[i].op == device.BatchRead && len(obody) != nvm.LineSize {
			return &FrameError{Reason: fmt.Sprintf("batch: read result %d has %d bytes", i, len(obody))}
		}
	}
	if n := it.trailing(); n != 0 {
		return &FrameError{Reason: fmt.Sprintf("batch: %d trailing bytes after results", n)}
	}
	return nil
}

// deliver fires the handler for every op in a validated StatusOK batch,
// re-enqueueing the failures link.requeue says to retry. The body has
// already been validated, so iteration cannot fail.
func (p *Pipe) deliver(b *frame, body []byte) {
	it, _ := parseBatchResults(body)
	for i := range b.ops {
		st, lat, obody, _ := it.next()
		op := &b.ops[i]
		if st == StatusOK {
			var data *nvm.Line
			if op.op == device.BatchRead {
				data = (*nvm.Line)(obody)
			}
			p.h(op.tag, op.op, data, sim.Time(lat), nil)
			continue
		}
		wait, err := p.l.requeue(op, statusError(st, obody))
		if err != nil {
			p.h(op.tag, op.op, nil, 0, err)
			continue
		}
		p.queueRetry(b, i, wait)
	}
}

// queueRetry copies op i's entry bytes out of its batch and schedules
// it for re-submission under a new sequence number, wait from now.
func (p *Pipe) queueRetry(b *frame, i int, wait time.Duration) {
	op := b.ops[i]
	p.retryWait = max(p.retryWait, wait)
	off := len(p.retry.buf)
	p.retry.buf = append(p.retry.buf, b.buf[op.off:op.off+op.n]...)
	op.off = off
	p.retry.ops = append(p.retry.ops, op)
}

// flushRetries sleeps the owed backoff once, then re-submits every
// queued retry into fresh batches under new sequence numbers.
func (p *Pipe) flushRetries() error {
	if len(p.retry.ops) == 0 {
		return nil
	}
	if wait := p.retryWait; wait > 0 {
		p.retryWait = 0
		p.l.logf("devnet: retrying %d batched ops in %v", len(p.retry.ops), wait)
		p.l.sleep(wait)
	}
	// Swap queues so retries queued while we drain (recvOne inside
	// seal may deliver a batch) land in a clean queue.
	q := p.retry
	p.retry, p.retrySpare = retryQueue{ops: p.retrySpare.ops[:0], buf: p.retrySpare.buf[:0]}, q
	for i := range q.ops {
		op := q.ops[i]
		b := p.ensureCur()
		off := len(b.buf)
		b.buf = append(b.buf, q.buf[op.off:op.off+op.n]...)
		op.off = off
		b.ops = append(b.ops, op)
		if len(b.ops) >= p.maxBatch {
			if err := p.seal(); err != nil {
				// Fatal: fail() reached the ops already moved into a batch;
				// fail the rest of the queue here so every op still gets
				// exactly one handler call.
				p.failOps(q.ops[i+1:], err)
				return err
			}
		}
	}
	return nil
}

// fail marks the pipe fatally dead and delivers the error to every op
// still pending anywhere (in flight, open batch, retry queue), so the
// handler fires exactly once per submitted op even on the failure path.
func (p *Pipe) fail(cause error) error {
	if p.err != nil {
		return p.err
	}
	p.err = cause
	for _, b := range p.l.window {
		p.failOps(b.ops, cause)
	}
	p.l.close()
	if p.cur != nil {
		p.failOps(p.cur.ops, cause)
		p.cur = nil
	}
	p.failOps(p.retry.ops, cause)
	p.retry.ops = p.retry.ops[:0]
	p.retry.buf = p.retry.buf[:0]
	return cause
}

// failOps delivers cause as the outcome of every op in ops.
func (p *Pipe) failOps(ops []pendOp, cause error) {
	for i := range ops {
		p.h(ops[i].tag, ops[i].op, nil, 0, cause)
	}
}

func batchOpName(op uint8) string {
	switch op {
	case device.BatchRead:
		return "read"
	case device.BatchWrite:
		return "write"
	case device.BatchDrain:
		return "drain"
	}
	return "batch-op"
}
