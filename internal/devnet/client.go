package devnet

import (
	"encoding/json"
	"sync"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Client drives a remote device over TCP: Read, Write and Drain, Ping,
// Info and SnapshotJSON, and the tenant ops (AttachTenant, TenantCreate,
// TenantRotate, TenantRotateStep). It reconstructs the device's typed
// errors from the wire statuses, so a data op fails over the wire with
// the error it would return in-process. It is a link with a window of
// one frame (strict stop-and-wait), so it inherits the link's
// self-healing: every exchange runs under a deadline, a broken
// connection is replaced with capped exponential backoff, and the
// unanswered request is retransmitted with its original (session, seq)
// so the server deduplicates it. After AttachTenant the same
// Read/Write/Drain run in the tenant's space. A Client serializes its
// requests; open several clients, or a Pipe, for concurrency.
type Client struct {
	mu sync.Mutex
	l  *link
}

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
	return &Client{l: l}, nil
}

// Close closes the connection. The remote device keeps running.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.l.drop()
	return nil
}

// do runs one introspection or tenant-admin op: success and
// non-retryable statuses go back to the caller (leaving the link usable),
// retryable ones go back to the link until its budget runs out. The
// response body aliases the link's receive buffer and is valid only until
// the next operation, so accessors that return bytes copy first.
func (c *Client) do(opName string, op uint8, body []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.l
	l.what = opName
	f := l.next()
	f.buf = append(newRequestFrame(f.buf, op, l.opts.Session, f.seq), body...)
	sealFrame(f.buf)
	resp, err := l.exchange(f)
	return resp.body, err
}

// data runs one read, write or drain as a batch of one entry over the
// window-1 link, under the two retry rules it shares with the Pipe: the
// link retransmits an unanswered or shed frame under the same sequence
// number (answer), and an op that failed retryably inside the executed
// batch is sent again under a new one (requeue).
func (c *Client) data(op uint8, addr uint64, line *nvm.Line) (nvm.Line, sim.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.l
	var out nvm.Line
	l.what = batchOpName(op)
	entry := pendOp{op: op, attempts: 1}
	for {
		f := l.next()
		f.buf = appendBatchOp(newBatchFrame(f.buf, l.opts.Session), op, addr, line)
		f.ops = append(f.ops, entry)
		sealBatchFrame(f.buf, f.seq, 1)
		resp, err := l.exchange(f)
		if err != nil {
			return out, 0, err
		}
		// answer validated the body: exactly one entry, a read's line-sized.
		it, _ := parseBatchResults(resp.body)
		st, latPS, body, _ := it.next()
		if st == StatusOK {
			copy(out[:], body)
			return out, sim.Time(latPS), nil
		}
		wait, err := l.requeue(&entry, statusError(st, body))
		if err != nil {
			return out, 0, err
		}
		l.sleep(wait)
	}
}

// Ping round-trips an empty request.
func (c *Client) Ping() error {
	_, err := c.do("ping", OpPing, nil)
	return err
}

// Info fetches the remote device description.
func (c *Client) Info() (device.Info, error) {
	var info device.Info
	data, err := c.do("info", OpInfo, nil)
	if err != nil {
		return info, err
	}
	return info, json.Unmarshal(data, &info)
}

// Read services one 64-byte read.
func (c *Client) Read(addr uint64) (nvm.Line, sim.Time, error) {
	return c.data(device.BatchRead, addr, nil)
}

// Write services one 64-byte write. Retries are safe: the request
// carries this client's session and a fresh sequence number, and the
// server acknowledges a duplicate of an already-committed write from
// its dedup window without applying it again. On a tenant-attached
// client a quota rejection surfaces as a *TenantQuotaError and is NOT
// retried: the budget will not refill inside a retry loop's horizon.
func (c *Client) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	_, lat, err := c.data(device.BatchWrite, addr, data)
	return lat, err
}

// Drain waits until the shard owning addr has drained its WPQ (on a
// tenant-attached client it only acknowledges: every acknowledged tenant
// write is already durable).
func (c *Client) Drain(addr uint64) error {
	_, _, err := c.data(device.BatchDrain, addr, nil)
	return err
}

// SnapshotJSON fetches the remote device's merged telemetry snapshot in
// its canonical JSON rendering (byte-identical to a local
// Snapshot().MarshalIndentJSON()).
func (c *Client) SnapshotJSON() ([]byte, error) {
	body, err := c.do("snapshot", OpSnapshot, nil)
	if err != nil {
		return nil, err
	}
	// body aliases the pooled receive buffer; hand the caller a copy.
	return append([]byte(nil), body...), nil
}
