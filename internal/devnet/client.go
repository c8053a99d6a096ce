package devnet

import (
	"encoding/json"
	"fmt"
	"sync"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Client drives a remote device over TCP and satisfies device.Client,
// reconstructing the device's typed error surface from the wire statuses
// so code written against the in-process device runs unchanged against a
// server. It is a link with a window of one frame (strict stop-and-wait),
// so it inherits the link's self-healing: every exchange runs under a
// deadline, a broken connection is replaced with capped exponential
// backoff, and the unanswered request is retransmitted with its original
// (session, seq) so the server deduplicates it. A Client serializes its
// requests; open several clients, or a Pipe, for concurrency.
type Client struct {
	mu sync.Mutex
	l  *link

	// attached/tenantID/tenantTok hold the tenant binding, replayed on
	// every reconnect (the binding is per-connection on the server).
	attached  bool
	tenantID  uint32
	tenantTok uint64
}

var _ device.Client = (*Client)(nil)

// Dial connects to a devnet server with default options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, Options{})
}

// DialWith connects with explicit resilience options.
func DialWith(addr string, opts Options) (*Client, error) {
	l, err := dialLink(addr, opts)
	if err != nil {
		return nil, err
	}
	c := &Client{l: l}
	l.onConnect = c.reattach
	return c, nil
}

// Session returns the client's dedup session id.
func (c *Client) Session() uint64 { return c.l.opts.Session }

// Close closes the connection. The remote device keeps running.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.drop()
	return nil
}

// begin locks the client and opens the frame of one operation; the
// caller appends the body and hands the frame to finish.
func (c *Client) begin(opName string, op uint8) *frame {
	c.mu.Lock()
	c.l.what = opName
	f := c.l.next()
	f.buf = newRequestFrame(f.buf, op, c.l.opts.Session, f.seq)
	return f
}

// finish sends the frame and settles its response: success and
// non-retryable statuses go back to the caller (leaving the link usable),
// retryable ones go back to the link until its budget runs out. The
// response body aliases the link's receive buffer and is valid only until
// the next operation, so accessors that return bytes copy first.
func (c *Client) finish(f *frame) (sim.Time, []byte, error) {
	defer c.mu.Unlock()
	l := c.l
	defer l.ack() // answered or given up on, the frame leaves the window
	sealFrame(f.buf)
	err := l.send(f)
	for err == nil {
		var resp wireResponse
		if resp, err = l.recv(); err != nil {
			break
		}
		derr := statusError(resp.status, resp.body)
		if derr == nil {
			return sim.Time(resp.latPS), resp.body, nil
		}
		if !l.retryable(derr) {
			return 0, nil, derr
		}
		err = l.recover(derr)
	}
	return 0, nil, err
}

func (c *Client) do(opName string, op uint8, body []byte) (sim.Time, []byte, error) {
	f := c.begin(opName, op)
	f.buf = append(f.buf, body...)
	return c.finish(f)
}

// doAddr is do for the addr(+line) data ops, encoding the body straight
// into the pooled frame so the hot path builds no intermediate slice.
func (c *Client) doAddr(opName string, op uint8, addr uint64, line *nvm.Line) (sim.Time, []byte, error) {
	f := c.begin(opName, op)
	f.buf = putU64(f.buf, addr)
	if line != nil {
		f.buf = append(f.buf, line[:]...)
	}
	return c.finish(f)
}

// doJSON is do for the ops answered in JSON, decoded into v.
func (c *Client) doJSON(opName string, op uint8, body []byte, v any) error {
	_, data, err := c.do(opName, op, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// lineOf copies the 64-byte line a read returned out of the receive
// buffer.
func lineOf(lat sim.Time, body []byte, err error) (nvm.Line, sim.Time, error) {
	var line nvm.Line
	if err != nil {
		return line, 0, err
	}
	if len(body) != nvm.LineSize {
		return line, 0, &FrameError{Reason: fmt.Sprintf("read returned %d bytes", len(body))}
	}
	copy(line[:], body)
	return line, lat, nil
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, _, err := c.do("ping", OpPing, nil)
	return err
}

// Info fetches the remote device description.
func (c *Client) Info() (device.Info, error) {
	var info device.Info
	return info, c.doJSON("info", OpInfo, nil, &info)
}

// Health fetches the server's readiness probe.
func (c *Client) Health() (Health, error) {
	var h Health
	return h, c.doJSON("health", OpHealth, nil, &h)
}

// Read services one 64-byte read.
func (c *Client) Read(addr uint64) (nvm.Line, sim.Time, error) {
	return lineOf(c.doAddr("read", OpRead, addr, nil))
}

// Write services one 64-byte write. Retries are safe: the request
// carries this client's session and a fresh sequence number, and the
// server acknowledges a duplicate of an already-committed write from
// its dedup window without applying it again.
func (c *Client) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	lat, _, err := c.doAddr("write", OpWrite, addr, data)
	return lat, err
}

// Drain waits until the shard owning addr has drained its WPQ.
func (c *Client) Drain(addr uint64) error {
	_, _, err := c.doAddr("drain", OpDrain, addr, nil)
	return err
}

// Flush is the device-wide durability barrier.
func (c *Client) Flush() error {
	_, _, err := c.do("flush", OpFlush, nil)
	return err
}

// Crash cuts power across the whole remote device.
func (c *Client) Crash() error {
	_, _, err := c.do("crash", OpCrash, nil)
	return err
}

// Recover rebuilds the remote device and returns its report.
func (c *Client) Recover() (*device.RecoveryReport, error) {
	rep := &device.RecoveryReport{}
	if err := c.doJSON("recover", OpRecover, nil, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// SnapshotJSON fetches the remote device's merged telemetry snapshot in
// its canonical JSON rendering (byte-identical to a local
// Snapshot().MarshalIndentJSON()).
func (c *Client) SnapshotJSON() ([]byte, error) {
	_, body, err := c.do("snapshot", OpSnapshot, nil)
	if err != nil {
		return nil, err
	}
	// body aliases the pooled receive buffer; hand the caller a copy.
	return append([]byte(nil), body...), nil
}
