package devnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// countingConn counts the Writes that reach a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeListener hands a server the far ends of in-memory net.Pipe
// connections. A client Write arrives whole in one server Read, and a
// server Write blocks until the client has read it, so the server's
// socket operations are deterministic and can be counted exactly.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial connects a client end and returns it with the server end's
// write counter.
func (l *pipeListener) dial(t *testing.T) (net.Conn, *countingConn) {
	t.Helper()
	client, server := net.Pipe()
	sc := &countingConn{Conn: server}
	l.conns <- sc
	t.Cleanup(func() { client.Close() })
	return client, sc
}

// pipeServer serves a fresh two-shard device over a pipeListener and
// returns the server (so a test can replace its control target), its
// telemetry and the listener.
func pipeServer(t *testing.T) (*Server, *telemetry.Registry, *pipeListener) {
	t.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-burst-test-key"),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	srv := NewServerWith(dev, ServerOptions{Telemetry: reg})
	ln := newPipeListener()
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
		dev.Close()
	})
	return srv, reg, ln
}

// readResponses reads n response frames and returns their sequence
// numbers and statuses.
func readResponses(t *testing.T, r io.Reader, n int) (seqs []uint64, statuses []uint8) {
	t.Helper()
	for i := 0; i < n; i++ {
		payload, err := readFrame(r)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		resp, err := parseResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, resp.seq)
		statuses = append(statuses, resp.status)
	}
	return seqs, statuses
}

// TestServerAnswersBurstInOneWrite: four requests that arrive in one
// client write are answered by exactly one server Write, responses in
// sequence order; a request that arrives alone gets a Write of its own.
func TestServerAnswersBurstInOneWrite(t *testing.T) {
	_, _, ln := pipeServer(t)
	conn, sc := ln.dial(t)

	var burst []byte
	for seq := uint64(1); seq <= 4; seq++ {
		burst = append(burst, frameBytes(encodeRequest(OpPing, 0, seq, 0))...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	seqs, statuses := readResponses(t, conn, 4)
	for i, seq := range seqs {
		if seq != uint64(i+1) || statuses[i] != StatusOK {
			t.Fatalf("response %d: seq %d status %d, want seq %d OK", i, seq, statuses[i], i+1)
		}
	}
	if got := sc.writes.Load(); got != 1 {
		t.Fatalf("four buffered requests took %d server writes, want 1", got)
	}

	if _, err := conn.Write(frameBytes(encodeRequest(OpPing, 0, 5, 0))); err != nil {
		t.Fatal(err)
	}
	if seqs, _ := readResponses(t, conn, 1); seqs[0] != 5 {
		t.Fatalf("lone request answered with seq %d", seqs[0])
	}
	if got := sc.writes.Load(); got != 2 {
		t.Fatalf("a lone request after the burst brought the server to %d writes, want 2", got)
	}
}

// drainingControl is the device as the server's control target, except
// that Info begins a graceful Shutdown and returns once the server is
// draining: a request that lands between two buffered ones.
type drainingControl struct {
	control
	srv      *Server
	shutdown chan struct{}
}

func (d drainingControl) Info() device.Info {
	d.srv.stopAccepting() // Shutdown's first half: the server is draining
	go func() { d.srv.Shutdown(); close(d.shutdown) }()
	return d.control.Info()
}

// TestShutdownAnswersHeldBurst starts a graceful Shutdown while the
// server holds a response and has more requests buffered: what executed
// is answered, nothing else executes, so applied writes equal
// acknowledged writes.
func TestShutdownAnswersHeldBurst(t *testing.T) {
	srv, reg, ln := pipeServer(t)
	ctl := drainingControl{control: srv.ctl, srv: srv, shutdown: make(chan struct{})}
	srv.ctl = ctl
	conn, sc := ln.dial(t)

	// write, info (the drain begins), write, write — in one client write.
	burst := buildBatchFrame(7, 1, []device.BatchOp{{Op: device.BatchWrite, Addr: 0, Line: batchTestLine(0, 1)}})
	burst = append(burst, frameBytes(encodeRequest(OpInfo, 0, 2, 0))...)
	for seq := uint64(3); seq <= 4; seq++ {
		burst = append(burst, buildBatchFrame(7, seq, []device.BatchOp{{Op: device.BatchWrite, Addr: seq * nvm.LineSize, Line: batchTestLine(seq, 1)}})...)
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for {
		payload, err := readFrame(conn)
		if err != nil {
			break // the drained server closed the connection
		}
		resp, err := parseResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.status == StatusOK && resp.seq != 2 {
			acked++
		}
	}
	<-ctl.shutdown
	if applied := reg.Counter("devnet_server_applied_writes_total").Value(); applied != uint64(acked) || acked != 1 {
		t.Fatalf("drain applied %d writes and acknowledged %d, want 1 and 1", applied, acked)
	}
	if got := sc.writes.Load(); got != 1 {
		t.Fatalf("held responses took %d writes, want 1", got)
	}
}

// TestPipeSendsWindowInOneWrite: four sealed batches wait for the pipe's
// first blocking read and leave in one Write; Kick writes at once.
func TestPipeSendsWindowInOneWrite(t *testing.T) {
	_, _, addr := rawServer(t, ServerOptions{})
	delivered := 0
	p, err := DialPipe(addr, func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) {
		if err != nil {
			t.Errorf("op %d: %v", tag, err)
		}
		delivered++
	}, PipeOptions{Window: 4, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cc := &countingConn{Conn: p.l.conn.Conn}
	p.l.conn.Conn = cc
	for i := uint64(0); i < 32; i++ {
		line := batchTestLine(i, 2)
		if err := p.Submit(i, device.BatchWrite, i*nvm.LineSize, &line); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(p.l.window); got != 4 {
		t.Fatalf("%d batches sealed, want 4", got)
	}
	if got := cc.writes.Load(); got != 0 {
		t.Fatalf("sealing made %d writes before any read, want 0", got)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 1 || delivered != 32 {
		t.Fatalf("four batches took %d writes and delivered %d ops, want 1 and 32", got, delivered)
	}

	if err := p.Submit(99, device.BatchRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Kick(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 2 {
		t.Fatalf("Kick left the writes at %d, want 2", got)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 2 || delivered != 33 {
		t.Fatalf("after Kick and Flush: %d writes, %d delivered, want 2 and 33", got, delivered)
	}
}

// batchReadResponse is a server's StatusOK answer to a one-entry read
// batch.
func batchReadResponse(seq uint64, line nvm.Line) []byte {
	out := putU32(respHeader(StatusOK, seq, 0, 0), 1)
	return appendBatchResult(out, StatusOK, 0, line[:])
}

// TestRedialDiscardsStaleBytes: a server sheds the first of two
// pipelined batches together with half of the second's response, then
// resets. The link drops that connection with the half response still
// buffered; the retransmit over the new one must be answered cleanly —
// one reconnect, both reads delivered once with the new connection's
// lines — not parsed behind the stale bytes.
func TestRedialDiscardsStaleBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	stale, fresh := batchTestLine(0, 0xee), batchTestLine(0, 0x11)
	go func() {
		for n := 0; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			for seq := uint64(1); seq <= 2; seq++ {
				if _, err := readFrame(conn); err != nil {
					conn.Close()
					return
				}
			}
			if n == 0 {
				shed := appendFrame(nil, respFromErr(1, &device.BusyError{Shard: -1, Pending: 1, RetryAfter: time.Millisecond}))
				half := appendFrame(nil, batchReadResponse(2, stale))
				conn.Write(append(shed, half[:len(half)/2]...))
				io.Copy(io.Discard, conn) // until the client drops it
				hardClose(conn)
				continue
			}
			conn.Write(append(appendFrame(nil, batchReadResponse(1, fresh)), appendFrame(nil, batchReadResponse(2, fresh))...))
			defer conn.Close()
		}
	}()

	reg := telemetry.NewRegistry()
	got := map[uint64]nvm.Line{}
	p, err := DialPipe(ln.Addr().String(), func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) {
		if err != nil {
			t.Errorf("read %d: %v", tag, err)
			return
		}
		if _, dup := got[tag]; dup {
			t.Errorf("read %d delivered twice", tag)
		}
		got[tag] = *data
	}, PipeOptions{Options: Options{Telemetry: reg, Retry: RetryPolicy{BaseBackoff: time.Millisecond}}, Window: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for tag := uint64(1); tag <= 2; tag++ {
		if err := p.Submit(tag, device.BatchRead, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != fresh || got[2] != fresh {
		t.Fatalf("delivered %d reads, want both with the new connection's line", len(got))
	}
	if n := reg.Counter("devnet_client_reconnects_total").Value(); n != 1 {
		t.Fatalf("%d reconnects, want 1: stale bytes were parsed on the new connection", n)
	}
}

// TestFramesLargerThanReadBuffer: a 4096-op batch in each direction and
// a telemetry snapshot response are bigger than the read buffer, and
// round-trip through it.
func TestFramesLargerThanReadBuffer(t *testing.T) {
	dev, err := device.New(device.Options{
		System:    config.TestSystem(),
		Mode:      memctrl.ModeSRC,
		Key:       []byte("devnet-large-frame-key"),
		Shards:    2,
		Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(dev)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(); <-done; dev.Close() })
	addr := ln.Addr().String()

	var mismatches, failures int
	p, err := DialPipe(addr, func(tag uint64, op uint8, data *nvm.Line, lat sim.Time, err error) {
		if err != nil {
			failures++
			return
		}
		if op == device.BatchRead && *data != batchTestLine(tag%maxBatchOps, 3) {
			mismatches++
		}
	}, PipeOptions{Window: 2, MaxBatch: maxBatchOps})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := uint64(0); i < maxBatchOps; i++ {
		line := batchTestLine(i, 3)
		if err := p.Submit(i, device.BatchWrite, i*nvm.LineSize, &line); err != nil {
			t.Fatal(err)
		}
	}
	if len(p.l.window) != 1 || len(p.l.out) <= readBufSize {
		t.Fatalf("a full batch sealed %d frames of %d bytes, want one bigger than the %d-byte read buffer", len(p.l.window), len(p.l.out), readBufSize)
	}
	for i := uint64(0); i < maxBatchOps; i++ {
		if err := p.Submit(maxBatchOps+i, device.BatchRead, i*nvm.LineSize, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if failures != 0 || mismatches != 0 {
		t.Fatalf("%d failed ops, %d reads that do not match their write", failures, mismatches)
	}

	// A registry of real size fits the read buffer; the snapshot op is
	// served a padded one.
	srv.ctl = paddedSnapshotControl{srv.ctl}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.SnapshotJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.ctl.Snapshot().MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) <= 2*readBufSize {
		t.Fatalf("snapshot is %d bytes, want more than two %d-byte read buffers", len(want), readBufSize)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("snapshot over the wire differs from the local one")
	}
}

// paddedSnapshotControl serves the device's telemetry snapshot with 4096
// extra counters added.
type paddedSnapshotControl struct{ control }

func (c paddedSnapshotControl) Snapshot() *telemetry.Snapshot {
	snap := c.control.Snapshot()
	if snap.Counters == nil {
		snap.Counters = map[string]uint64{}
	}
	for i := range 4096 {
		snap.Counters[fmt.Sprintf("padding_counter_%04d", i)] = uint64(i) * 7919
	}
	return snap
}
