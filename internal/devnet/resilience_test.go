package devnet_test

import (
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// startServerWith is startServer with explicit hardening options,
// returning the server's telemetry registry too.
func startServerWith(t *testing.T, sopts devnet.ServerOptions) (*device.Device, *telemetry.Registry, string) {
	t.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-resilience-key"),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	sopts.Telemetry = reg
	srv := devnet.NewServerWith(dev, sopts)
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

// blackHole returns the address of a listener that accepts every
// connection, holds it open and never answers.
func blackHole(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open until the listener closes
		}
	}()
	return ln.Addr().String()
}

// TestClientTimeoutIsTypedAndRetried points a client at a listener that
// accepts and then plays dead. Every attempt must end in a typed
// transport timeout, the retry budget must be honored, and the final
// error must carry the attempt count.
func TestClientTimeoutIsTypedAndRetried(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := devnet.DialWith(blackHole(t), devnet.Options{
		OpTimeout: 100 * time.Millisecond,
		Retry: devnet.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
		},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.Ping()
	if err == nil {
		t.Fatal("ping against a dead listener succeeded")
	}
	var oe *devnet.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("want *OpError, got %T: %v", err, err)
	}
	if oe.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", oe.Attempts)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("error does not unwrap to a net timeout: %v", err)
	}
	if devnet.ClassOf(oe.Err) != devnet.ClassTransport {
		t.Fatalf("underlying class = %v, want transport", devnet.ClassOf(oe.Err))
	}
	if got := reg.Counter("devnet_client_timeouts_total").Value(); got != 3 {
		t.Fatalf("timeouts counted = %d, want 3", got)
	}
	if got := reg.Counter("devnet_client_gave_up_total").Value(); got != 1 {
		t.Fatalf("gave-up counted = %d, want 1", got)
	}
	// 3 attempts x 100ms deadline plus two short backoffs: the whole
	// operation must come nowhere near an unbounded hang.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("operation took %v, deadlines are not being applied", elapsed)
	}
}

// TestClientRecoversAcrossServerRestart kills the server mid-session and
// brings a new one up on the same address; the client's reconnect loop
// must ride through without the caller seeing an error.
func TestClientRecoversAcrossServerRestart(t *testing.T) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-restart-key"),
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	sessions := devnet.NewSessionTable(0, 0)
	srv := devnet.NewServerWith(dev, devnet.ServerOptions{Sessions: sessions})
	go srv.Serve(ln)

	reg := telemetry.NewRegistry()
	c, err := devnet.DialWith(addr, devnet.Options{
		OpTimeout: 500 * time.Millisecond,
		Retry: devnet.RetryPolicy{
			MaxAttempts: -1,
			MaxElapsed:  10 * time.Second,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
		},
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	line := testLine(0, 7)
	if _, err := c.Write(0, &line); err != nil {
		t.Fatalf("write before restart: %v", err)
	}

	srv.Abort()

	// Restart on the same port with the same dedup table.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	srv2 := devnet.NewServerWith(dev, devnet.ServerOptions{Sessions: sessions})
	done := make(chan struct{})
	go func() { defer close(done); srv2.Serve(ln2) }()
	defer func() { srv2.Shutdown(); <-done }()

	got, _, err := c.Read(0)
	if err != nil {
		t.Fatalf("read across restart: %v", err)
	}
	if got != line {
		t.Fatal("read across restart returned wrong data")
	}
	if reg.Counter("devnet_client_reconnects_total").Value() == 0 {
		t.Fatal("client never counted a reconnect")
	}
}

// TestDownRetryBoundedByMaxElapsed: with unlimited attempts and
// RetryDown, an op against a device nobody recovers comes back — inside an
// executed batch, so under the per-op retry rule — again and again.
// MaxElapsed must still end it, for the stop-and-wait client and for the
// pipe alike, with the typed cause inside an *OpError, and without
// poisoning either client.
func TestDownRetryBoundedByMaxElapsed(t *testing.T) {
	dev, _, addr := startServerWith(t, devnet.ServerOptions{})
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	opts := devnet.Options{Retry: devnet.RetryPolicy{
		MaxAttempts: -1,
		MaxElapsed:  150 * time.Millisecond,
		BaseBackoff: 5 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		RetryDown:   true,
	}}
	check := func(who string, start time.Time, err error) {
		t.Helper()
		var oe *devnet.OpError
		if !errors.As(err, &oe) || !errors.Is(err, memctrl.ErrCrashed) || oe.Op != "write" || oe.Attempts < 2 {
			t.Fatalf("%s: %v, want an *OpError for a write wrapping ErrCrashed after several attempts", who, err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("%s kept retrying for %v, MaxElapsed is 150ms", who, elapsed)
		}
	}
	line := testLine(0, 4)

	c, err := devnet.DialWith(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Write(0, &line)
	check("client", start, err)

	var opErr error
	p, err := devnet.DialPipe(addr, func(_ uint64, _ uint8, _ *nvm.Line, _ sim.Time, err error) { opErr = err },
		devnet.PipeOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	start = time.Now()
	if err := p.Submit(1, device.BatchWrite, 0, &line); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatalf("a per-op give-up poisoned the pipe: %v", err)
	}
	check("pipe", start, opErr)

	// Both clients are still usable once something recovers the device.
	if _, err := dev.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(0, &line); err != nil {
		t.Fatalf("client write after recovery: %v", err)
	}
	if err := p.Submit(2, device.BatchRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil || opErr != nil {
		t.Fatalf("pipe read after recovery: %v / %v", err, opErr)
	}
}

// gateHook blocks every device write until released, holding the
// server's handler in flight.
type gateHook struct {
	gate    chan struct{}
	once    sync.Once
	blocked chan struct{}
}

func newGateHook() *gateHook {
	return &gateHook{gate: make(chan struct{}), blocked: make(chan struct{})}
}

func (h *gateHook) Event(ev inject.Event) {
	if ev.Kind != inject.DeviceWrite {
		return
	}
	h.once.Do(func() { close(h.blocked) })
	<-h.gate
}

func (h *gateHook) release() {
	select {
	case <-h.gate:
	default:
		close(h.gate)
	}
}

// TestOverloadShedsWithBusy holds one request in flight with a blocking
// injection hook and checks that the next request is shed with a typed
// server-level BusyError instead of queueing behind it.
func TestOverloadShedsWithBusy(t *testing.T) {
	dev, reg, addr := startServerWith(t, devnet.ServerOptions{MaxInFlight: 1})
	hook := newGateHook()
	defer hook.release()
	// The one gate is every shard's hook: the first device write blocks,
	// whichever shard it lands on.
	hooks := make([]inject.Hook, dev.Info().Shards)
	for i := range hooks {
		hooks[i] = hook
	}
	if err := dev.SetShardHooks(hooks); err != nil {
		t.Fatal(err)
	}

	blocked, err := devnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Close()
	writeDone := make(chan error, 1)
	go func() {
		line := testLine(0, 3)
		if _, err := blocked.Write(0, &line); err != nil {
			writeDone <- err
			return
		}
		writeDone <- blocked.Drain(0)
	}()
	select {
	case <-hook.blocked:
	case err := <-writeDone:
		t.Fatalf("write finished without blocking: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("hook never saw a device write")
	}

	probe, err := devnet.DialWith(addr, devnet.Options{
		Retry: devnet.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	err = probe.Ping()
	var busy *device.BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("want BusyError from shed server, got %v", err)
	}
	if busy.Shard != -1 {
		t.Fatalf("server-level shed shard = %d, want -1", busy.Shard)
	}
	if busy.RetryAfter <= 0 {
		t.Fatal("shed busy carries no retry-after hint")
	}
	if devnet.ClassOf(err) != devnet.ClassBusy {
		t.Fatalf("shed classed %v, want busy", devnet.ClassOf(err))
	}
	if reg.Counter("devnet_server_shed_total").Value() == 0 {
		t.Fatal("shed not counted")
	}

	hook.release()
	if err := <-writeDone; err != nil {
		t.Fatalf("blocked writer failed after release: %v", err)
	}
	if err := dev.SetShardHooks(make([]inject.Hook, len(hooks))); err != nil {
		t.Fatal(err)
	}
	// With the gate open the shed clears and retries succeed.
	if err := probe.Ping(); err != nil {
		t.Fatalf("ping after release: %v", err)
	}
}

// TestHealthProbe checks the readiness bit tracks device state and the
// server's drain.
func TestHealthProbe(t *testing.T) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSRC,
		Key:    []byte("devnet-health-key"),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	srv := devnet.NewServer(dev)

	if h := srv.Health(); !h.Ready || h.DeviceDown || h.Shards != 4 {
		t.Fatalf("healthy probe = %+v", h)
	}
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.Ready || !h.DeviceDown {
		t.Fatalf("post-crash probe = %+v", h)
	}
	if _, err := dev.Recover(); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); !h.Ready {
		t.Fatalf("post-recovery probe = %+v", h)
	}
	srv.Shutdown()
	if h := srv.Health(); h.Ready || !h.Draining {
		t.Fatalf("post-shutdown probe = %+v", h)
	}
}

// TestHandlerPanicIsolated serves a control target whose snapshot
// panics inside the handler. The panic must come back as a typed server
// error on the same connection, which stays usable.
func TestHandlerPanicIsolated(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := devnet.NewServerWith(nil, devnet.ServerOptions{Telemetry: reg})
	if h := srv.Health(); h.Shards != 0 {
		t.Fatalf("nil-device health shards = %d", h.Shards)
	}
	srv.PanicOnSnapshotForTest()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	defer func() { srv.Shutdown(); <-done }()

	c, err := devnet.DialWith(ln.Addr().String(), devnet.Options{
		Retry: devnet.RetryPolicy{MaxAttempts: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.SnapshotJSON()
	if err == nil {
		t.Fatal("panicking snapshot succeeded")
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("want panic surfaced as server error, got %v", err)
	}
	if devnet.ClassOf(err) != devnet.ClassFatal {
		t.Fatalf("handler panic classed %v, want fatal", devnet.ClassOf(err))
	}
	if reg.Counter("devnet_server_handler_panics_total").Value() == 0 {
		t.Fatal("panic not counted")
	}
	// Same connection, next request: the server must still answer.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after handler panic: %v", err)
	}
}
