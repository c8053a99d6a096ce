package devnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
	"soteria/internal/tenant"
)

// rawServer brings up a device and a hardened server, returning the
// dial address plus the server's telemetry registry so tests can read
// the resilience counters.
func rawServer(t *testing.T, sopts ServerOptions) (*device.Device, *telemetry.Registry, string) {
	t.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-raw-test-key"),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sopts.Telemetry = reg
	srv := NewServerWith(dev, sopts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown()
		<-done
		dev.Close()
	})
	return dev, reg, ln.Addr().String()
}

// exchange writes one request frame and reads the response payload.
func exchange(t *testing.T, conn net.Conn, req []byte) []byte {
	t.Helper()
	if _, err := conn.Write(appendFrame(nil, req)); err != nil {
		t.Fatalf("write frame: %v", err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	return resp
}

// writeBatch is the request payload of a one-entry write batch — what
// Client.Write puts on the wire.
func writeBatch(session, seq, addr uint64, line nvm.Line) []byte {
	return buildBatchFrame(session, seq, []device.BatchOp{{Op: device.BatchWrite, Addr: addr, Line: line}})[frameHeaderSize:]
}

// TestDedupWindowAnswersRetriedWrite replays the exact bytes of a
// committed write — what a client that lost the first response does —
// and checks the server acknowledges from the dedup window without
// applying the write a second time.
func TestDedupWindowAnswersRetriedWrite(t *testing.T) {
	_, reg, addr := rawServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var line nvm.Line
	for i := range line {
		line[i] = byte(i) ^ 0xa5
	}
	req := writeBatch(42, 7, 3*nvm.LineSize, line)

	first := exchange(t, conn, req)
	if first[0] != StatusOK {
		t.Fatalf("first write status %d", first[0])
	}
	second := exchange(t, conn, req)
	if !bytes.Equal(first, second) {
		t.Fatalf("retried write answered differently:\n first %x\nsecond %x", first, second)
	}
	if got := reg.Counter("devnet_server_applied_writes_total").Value(); got != 1 {
		t.Fatalf("write applied %d times, want exactly once", got)
	}
	if got := reg.Counter("devnet_server_dedup_hits_total").Value(); got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}

	// A fresh sequence number from the same session must execute.
	if resp := exchange(t, conn, writeBatch(42, 8, 3*nvm.LineSize, line)); resp[0] != StatusOK {
		t.Fatalf("fresh seq status %d", resp[0])
	}
	if got := reg.Counter("devnet_server_applied_writes_total").Value(); got != 2 {
		t.Fatalf("applied writes after fresh seq = %d, want 2", got)
	}
}

// TestSessionZeroBypassesDedup: session 0 marks a client that opted out
// of idempotency; identical frames must re-execute.
func TestSessionZeroBypassesDedup(t *testing.T) {
	_, reg, addr := rawServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := writeBatch(0, 1, 0, nvm.Line{})
	exchange(t, conn, req)
	exchange(t, conn, req)
	if got := reg.Counter("devnet_server_applied_writes_total").Value(); got != 2 {
		t.Fatalf("session-0 writes applied %d times, want 2", got)
	}
}

// TestRetiredOpcodesAnswerUnknownOp: the single-op data frames and the
// operator and introspection ops no client sent (flush, crash, recover,
// health, tenant info, list, metrics) are gone; their opcode numbers are
// reserved, must not execute anything, and leave the connection usable.
func TestRetiredOpcodesAnswerUnknownOp(t *testing.T) {
	dev, reg, addr := rawServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Each retired number with the body its frame used to take.
	retired := map[uint8]int{
		3: 8, 4: 8 + nvm.LineSize, 5: 8, 6: 0, 7: 0, 8: 0, 10: 0,
		12: 12, 13: 12 + nvm.LineSize, 17: 4, 18: 0, 19: 4,
	}
	for op, n := range retired {
		req := append(encodeRequest(op, 9, uint64(op), n), make([]byte, n)...)
		resp, err := parseResponse(exchange(t, conn, req))
		if err != nil {
			t.Fatal(err)
		}
		if resp.status != StatusError || !bytes.Contains(resp.body, []byte("unknown op")) {
			t.Fatalf("retired op %d answered status %d %q", op, resp.status, resp.body)
		}
	}
	if got := reg.Counter("devnet_server_applied_writes_total").Value(); got != 0 {
		t.Fatalf("a retired opcode applied %d writes", got)
	}
	if dev.Down() {
		t.Fatal("the retired crash opcode cut power to the device")
	}
	resp, err := parseResponse(exchange(t, conn, encodeRequest(OpPing, 9, 100, 0)))
	if err != nil || resp.status != StatusOK {
		t.Fatalf("ping after the retired opcodes: status %d (%v)", resp.status, err)
	}
}

// TestDedupReplayRequiresSameBinding: the dedup window must not be a way
// around OpTenantAttach. A session id is a uniqueness token, not a
// credential, so the cached response of a tenant read — plaintext line
// included — is replayed only to a connection bound to the tenant it was
// produced for (where a genuine retransmit always arrives, because the
// link re-attaches first).
func TestDedupReplayRequiresSameBinding(t *testing.T) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-raw-tenant-key"),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("devnet-raw-tenant-master")})
	if err != nil {
		t.Fatal(err)
	}
	tokens := map[uint32]uint64{}
	for id := uint32(1); id <= 2; id++ {
		if tokens[id], err = svc.Provision(id, 8, 0); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	srv := NewServerWith(nil, ServerOptions{Tenants: svc, Telemetry: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(); <-done; dev.Close() })

	// dial opens a raw connection, attached as tenant id unless id is 0.
	dial := func(id uint32) net.Conn {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if id != 0 {
			attach := appendAttach(nil, 0, 0, id, tokens[id])[frameHeaderSize:]
			if resp := exchange(t, conn, attach); resp[0] != StatusOK {
				t.Fatalf("attach tenant %d: status %d", id, resp[0])
			}
		}
		return conn
	}

	secret := batchTestLine(0, 0x5e)
	owner := dial(1)
	if resp := exchange(t, owner, writeBatch(42, 1, 0, secret)); resp[0] != StatusOK {
		t.Fatalf("write status %d", resp[0])
	}
	read := buildBatchFrame(42, 2, []device.BatchOp{{Op: device.BatchRead, Addr: 0}})[frameHeaderSize:]
	first := exchange(t, owner, read)
	if first[0] != StatusOK || !bytes.Contains(first, secret[:]) {
		t.Fatalf("tenant read did not return the line (status %d)", first[0])
	}

	for name, id := range map[string]uint32{"unattached": 0, "attached as another tenant": 2} {
		replay := exchange(t, dial(id), read)
		if bytes.Contains(replay, secret[:]) {
			t.Fatalf("%s connection replayed tenant 1's cached read, plaintext included", name)
		}
		resp, err := parseResponse(replay)
		if err != nil {
			t.Fatal(err)
		}
		if derr := statusError(resp.status, resp.body); !errors.Is(derr, tenant.ErrAuth) {
			t.Fatalf("%s replay: status %d (%v), want StatusTenantDenied", name, resp.status, derr)
		}
	}
	if got := reg.Counter("devnet_server_dedup_hits_total").Value(); got != 0 {
		t.Fatalf("denied replays counted %d dedup hits", got)
	}

	// The retransmit the window exists for: same session, a new connection
	// that re-attached as the same tenant.
	if again := exchange(t, dial(1), read); !bytes.Equal(again, first) {
		t.Fatal("re-attached retransmit was not answered from the dedup window")
	}
	if got := reg.Counter("devnet_server_dedup_hits_total").Value(); got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
}

// TestCorruptFrameRejected flips one payload byte in an otherwise valid
// frame; the CRC must catch it before the request executes.
func TestCorruptFrameRejected(t *testing.T) {
	_, reg, addr := rawServer(t, ServerOptions{ReadStall: 200 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	raw := frameBytes(encodeRequest(OpPing, 9, 1, 0))
	raw[frameHeaderSize] ^= 0x40 // corrupt the first payload byte
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFrame(conn); err == nil {
		t.Fatal("server answered a corrupt frame instead of dropping the connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("devnet_server_frame_errors_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("frame error never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStalledPeerDropped sends part of a frame and then goes silent; the
// stall deadline must kill the connection instead of pinning a handler
// goroutine forever.
func TestStalledPeerDropped(t *testing.T) {
	_, reg, addr := rawServer(t, ServerOptions{ReadStall: 100 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(frameBytes(encodeRequest(OpPing, 0, 1, 0))[:frameHeaderSize+3]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("read succeeded; server should have dropped the stalled connection")
	}
	if waited := time.Since(start); waited > 3*time.Second {
		t.Fatalf("stall drop took %v, want well under the 5s default", waited)
	}
	if got := reg.Counter("devnet_server_stall_drops_total").Value(); got == 0 {
		t.Fatal("stall drop not counted")
	}
}

// TestIdleConnectionDropped: a connection that never sends anything is
// reaped once the idle budget runs out.
func TestIdleConnectionDropped(t *testing.T) {
	_, reg, addr := rawServer(t, ServerOptions{IdleTimeout: 150 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		t.Fatal("idle connection survived")
	}
	if got := reg.Counter("devnet_server_idle_drops_total").Value(); got == 0 {
		t.Fatal("idle drop not counted")
	}
}

// TestFrameLengthCapped: a header claiming more than maxFrame bytes is a
// typed frame error, not an allocation.
func TestFrameLengthCapped(t *testing.T) {
	raw := frameBytes(make([]byte, 32))
	raw[0], raw[1], raw[2], raw[3] = 0xff, 0xff, 0xff, 0xff
	_, err := readFrame(bytes.NewReader(raw))
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("huge length header: got %v, want *FrameError", err)
	}
}

// TestTruncatedFrameIsTransportError: a frame whose stream ends mid-
// payload surfaces as unexpected EOF, which the client taxonomy
// classifies as retryable transport.
func TestTruncatedFrameIsTransportError(t *testing.T) {
	raw := frameBytes(make([]byte, 64))[:frameHeaderSize+20]
	_, err := readFrame(bytes.NewReader(raw))
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("truncated frame: got %v, want unexpected EOF", err)
	}
	if ClassOf(err) != ClassTransport {
		t.Fatalf("truncated frame classed %v, want transport", ClassOf(err))
	}
	if !(RetryPolicy{}).retries(ClassOf(err)) {
		t.Fatal("truncated frame should be retryable")
	}
}
