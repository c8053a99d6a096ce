package devnet_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

func TestPipeRoundTrip(t *testing.T) {
	_, addr := startServer(t, nil)

	data := make(map[uint64]nvm.Line)
	errs := make(map[uint64]error)
	oks := 0
	p, err := devnet.DialPipe(addr, func(tag uint64, op uint8, line *nvm.Line, lat sim.Time, err error) {
		if err != nil {
			errs[tag] = err
			return
		}
		oks++
		if line != nil {
			data[tag] = *line
		}
	}, devnet.PipeOptions{Window: 4, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 100
	for i := uint64(0); i < n; i++ {
		line := testLine(i*64, 3)
		if err := p.Submit(i, device.BatchWrite, i*64, &line); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := p.Submit(1000+i, device.BatchRead, i*64, nil); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := p.Submit(2000+i, device.BatchDrain, i*64, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 0 {
		t.Fatalf("unexpected op errors: %v", errs)
	}
	for i := uint64(0); i < n; i++ {
		if data[1000+i] != testLine(i*64, 3) {
			t.Fatalf("read %d returned wrong data", i)
		}
	}
}

func TestPipePerOpErrorDoesNotPoisonPipe(t *testing.T) {
	_, addr := startServer(t, nil)

	outcomes := make(map[uint64]error)
	p, err := devnet.DialPipe(addr, func(tag uint64, op uint8, line *nvm.Line, lat sim.Time, err error) {
		outcomes[tag] = err
	}, devnet.PipeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// An out-of-range address fails its own op fatally; its batch mates
	// and later ops must be unaffected.
	line := testLine(0, 1)
	if err := p.Submit(1, device.BatchWrite, 0, &line); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(2, device.BatchRead, 1<<60, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(3, device.BatchRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if outcomes[1] != nil || outcomes[3] != nil {
		t.Fatalf("healthy ops failed: %v / %v", outcomes[1], outcomes[3])
	}
	if outcomes[2] == nil {
		t.Fatal("out-of-range read did not fail")
	}
	// The pipe is still usable.
	if err := p.Submit(4, device.BatchRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if outcomes[4] != nil {
		t.Fatalf("op after per-op error failed: %v", outcomes[4])
	}
}

// TestPipeSteadyStateAllocs pins the pipelined client's zero-copy
// contract: once warm, a batched op costs well under one allocation on
// the client.
func TestPipeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	_, addr := startServer(t, nil)

	var sink nvm.Line
	p, err := devnet.DialPipe(addr, func(tag uint64, op uint8, line *nvm.Line, lat sim.Time, err error) {
		if err != nil {
			t.Errorf("op %d: %v", tag, err)
		}
		if line != nil {
			sink = *line
		}
	}, devnet.PipeOptions{Window: 4, MaxBatch: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 64
	lines := make([]nvm.Line, n)
	for i := range lines {
		lines[i] = testLine(uint64(i)*64, 7)
	}
	round := func() {
		for i := uint64(0); i < n; i++ {
			var err error
			if i%4 == 3 {
				err = p.Submit(i, device.BatchRead, i*64, nil)
			} else {
				err = p.Submit(i, device.BatchWrite, i*64, &lines[i])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		round() // warm buffers, free lists, server scratch
	}
	allocs := testing.AllocsPerRun(20, round)
	if perOp := allocs / n; perOp >= 0.5 {
		t.Fatalf("pipelined op costs %.3f allocs (%.1f per round), want < 0.5", perOp, allocs)
	}
	_ = sink
}

// killingProxy relays TCP between the client and a devnet server, but
// on connection i it relays schedule[i] response frames, swallows the
// next one and closes — a deterministic schedule of connections lost
// with an executed request's response in flight, for retransmit tests.
type killingProxy struct {
	ln       net.Listener
	backend  string
	schedule []int

	mu    sync.Mutex
	conns int
}

func startKillingProxy(t *testing.T, backend string, schedule []int) *killingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kp := &killingProxy{ln: ln, backend: backend, schedule: schedule}
	go kp.run()
	t.Cleanup(func() { ln.Close() })
	return kp
}

func (kp *killingProxy) addr() string { return kp.ln.Addr().String() }

func (kp *killingProxy) connCount() int {
	kp.mu.Lock()
	defer kp.mu.Unlock()
	return kp.conns
}

func (kp *killingProxy) run() {
	for {
		client, err := kp.ln.Accept()
		if err != nil {
			return
		}
		kp.mu.Lock()
		idx := kp.conns
		kp.conns++
		kp.mu.Unlock()
		budget := -1 // unlimited
		if idx < len(kp.schedule) {
			budget = kp.schedule[idx]
		}
		server, err := net.Dial("tcp", kp.backend)
		if err != nil {
			client.Close()
			continue
		}
		go func() { io.Copy(server, client); server.Close() }()
		kp.relayResponses(client, server, budget)
		client.Close()
		server.Close()
	}
}

// relayResponses forwards whole response frames server→client, cutting
// the connection once it has read frame budget+1 from the server, without
// forwarding it (budget < 0: forward forever).
func (kp *killingProxy) relayResponses(client, server net.Conn, budget int) {
	var hdr [8]byte
	buf := make([]byte, 64<<10)
	for n := 0; ; n++ {
		if _, err := io.ReadFull(server, hdr[:]); err != nil {
			return
		}
		size := int(binary.BigEndian.Uint32(hdr[:4]))
		if size > len(buf) {
			buf = make([]byte, size)
		}
		if _, err := io.ReadFull(server, buf[:size]); err != nil {
			return
		}
		if n == budget {
			return
		}
		if _, err := client.Write(hdr[:]); err != nil {
			return
		}
		if _, err := client.Write(buf[:size]); err != nil {
			return
		}
	}
}

// TestPipeRetransmitOnConnectionLoss drives the pipelined client
// through a deterministic schedule of connection kills and checks the
// window-aware resilience contract: every op is delivered exactly once
// and applied exactly once, recovery shows up as reconnects and
// go-back-N batch retransmits, and NOT as per-op retries (nothing
// failed inside an executed batch).
func TestPipeRetransmitOnConnectionLoss(t *testing.T) {
	t.Run("unlimited attempts", func(t *testing.T) {
		testPipeRetransmit(t, []int{2, 1, 3}, -1)
	})
	// More separate connection losses than MaxAttempts, each followed by
	// an answered batch: the budget is charged per unanswered frame and
	// refilled by progress, so it must not accumulate across losses.
	t.Run("budget resets on progress", func(t *testing.T) {
		testPipeRetransmit(t, []int{1, 2, 1, 1, 2, 1, 1, 1}, 4)
	})
}

func testPipeRetransmit(t *testing.T, schedule []int, maxAttempts int) {
	dev, backend := startServer(t, nil)
	kp := startKillingProxy(t, backend, schedule)

	reg := telemetry.NewRegistry()
	delivered := make(map[uint64]int)
	var opErrs []error
	p, err := devnet.DialPipe(kp.addr(), func(tag uint64, op uint8, line *nvm.Line, lat sim.Time, err error) {
		delivered[tag]++
		if err != nil {
			opErrs = append(opErrs, err)
		}
	}, devnet.PipeOptions{
		Options: devnet.Options{
			Telemetry: reg,
			Retry: devnet.RetryPolicy{
				MaxAttempts: maxAttempts,
				MaxElapsed:  30 * time.Second,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
			},
		},
		Window:   4,
		MaxBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const n = 160
	for i := uint64(0); i < n; i++ {
		line := testLine(i*64, 5)
		if err := p.Submit(i, device.BatchWrite, i*64, &line); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}

	if len(opErrs) != 0 {
		t.Fatalf("op errors through kill schedule: %v", opErrs)
	}
	for i := uint64(0); i < n; i++ {
		if delivered[i] != 1 {
			t.Fatalf("op %d delivered %d times, want exactly once", i, delivered[i])
		}
	}
	// Every write applied exactly once despite the retransmits: the
	// device's content must match, via a fresh stop-and-wait client
	// straight to the backend.
	c, err := devnet.Dial(backend)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(0); i < n; i++ {
		line, _, err := c.Read(i * 64)
		if err != nil {
			t.Fatal(err)
		}
		if line != testLine(i*64, 5) {
			t.Fatalf("line %d corrupted by retransmit", i)
		}
	}
	_ = dev

	if kp.connCount() <= len(schedule) {
		t.Fatalf("kill schedule only produced %d connections", kp.connCount())
	}
	counters := map[string]uint64{
		"devnet_client_reconnects_total":        reg.Counter("devnet_client_reconnects_total").Value(),
		"devnet_client_batch_retransmits_total": reg.Counter("devnet_client_batch_retransmits_total").Value(),
		"devnet_client_retries_total":           reg.Counter("devnet_client_retries_total").Value(),
		"devnet_client_gave_up_total":           reg.Counter("devnet_client_gave_up_total").Value(),
	}
	if got := counters["devnet_client_reconnects_total"]; got < uint64(len(schedule)) {
		t.Fatalf("reconnects = %d, want >= %d (one per killed connection): %v", got, len(schedule), counters)
	}
	if counters["devnet_client_batch_retransmits_total"] == 0 {
		t.Fatalf("no batch retransmits recorded: %v", counters)
	}
	if counters["devnet_client_retries_total"] != 0 {
		t.Fatalf("go-back-N recovery leaked into per-op retries: %v", counters)
	}
	if counters["devnet_client_gave_up_total"] != 0 {
		t.Fatalf("gave up although every loss was followed by progress: %v", counters)
	}
}

// TestClientWriteRetriedAcrossDropAppliedOnce loses the response to a
// stop-and-wait write — a one-entry batch — with the connection: the
// client must reconnect and retransmit the same (session, seq), and the
// server must acknowledge it from the dedup window instead of applying
// the write again.
func TestClientWriteRetriedAcrossDropAppliedOnce(t *testing.T) {
	_, serverReg, backend := startServerWith(t, devnet.ServerOptions{})
	kp := startKillingProxy(t, backend, []int{0})
	clientReg := telemetry.NewRegistry()
	c, err := devnet.DialWith(kp.addr(), devnet.Options{
		Retry:     devnet.RetryPolicy{BaseBackoff: time.Millisecond},
		Telemetry: clientReg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	line := testLine(0, 6)
	if _, err := c.Write(0, &line); err != nil {
		t.Fatalf("write across a dropped connection: %v", err)
	}
	if got := serverReg.Counter("devnet_server_applied_writes_total").Value(); got != 1 {
		t.Fatalf("write applied %d times, want exactly once", got)
	}
	if got := serverReg.Counter("devnet_server_dedup_hits_total").Value(); got != 1 {
		t.Fatalf("dedup hits = %d, want 1 (the retransmit)", got)
	}
	if clientReg.Counter("devnet_client_reconnects_total").Value() != 1 ||
		clientReg.Counter("devnet_client_retries_total").Value() != 1 {
		t.Fatalf("recovery counters: %v", clientReg.Snapshot().Counters)
	}
	if got, _, err := c.Read(0); err != nil || got != line {
		t.Fatalf("read back: %v", err)
	}
}

// TestPipeTimeoutIsTypedAndBounded is TestClientTimeoutIsTypedAndRetried
// for the pipelined client: against a listener that accepts and never
// answers, Flush must come back inside the retry budget with a typed
// timeout, and every submitted op must hear about it exactly once.
func TestPipeTimeoutIsTypedAndBounded(t *testing.T) {
	reg := telemetry.NewRegistry()
	delivered := make(map[uint64]int)
	var opErrs []error
	p, err := devnet.DialPipe(blackHole(t), func(tag uint64, op uint8, line *nvm.Line, lat sim.Time, err error) {
		delivered[tag]++
		opErrs = append(opErrs, err)
	}, devnet.PipeOptions{
		Options: devnet.Options{
			OpTimeout: 50 * time.Millisecond,
			Retry: devnet.RetryPolicy{
				MaxAttempts: 3,
				MaxElapsed:  time.Second,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  10 * time.Millisecond,
			},
			Telemetry: reg,
		},
		Window:   2,
		MaxBatch: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// Enough for three sealed batches (one more than the window) and an
	// open one; the Submit that has to wait for window space is the one
	// that learns the pipe is dead, and nothing after it is submitted.
	const n = 14
	submitted := uint64(0)
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); i < n; i++ {
			line := testLine(i*64, 1)
			submitted++
			if err := p.Submit(i, device.BatchWrite, i*64, &line); err != nil {
				done <- err
				return
			}
		}
		done <- p.Flush()
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("pipe still retrying a black-hole peer after 5s; the retry budget is not bounding it")
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
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pipe took %v to give up, want well inside MaxElapsed + deadlines", elapsed)
	}
	if submitted < 9 || len(delivered) != int(submitted) {
		t.Fatalf("%d ops submitted, %d heard an outcome", submitted, len(delivered))
	}
	for i := uint64(0); i < submitted; i++ {
		if delivered[i] != 1 {
			t.Fatalf("op %d heard %d outcomes, want exactly one", i, delivered[i])
		}
	}
	for _, e := range opErrs {
		if !errors.Is(e, err) {
			t.Fatalf("op outcome %v is not the pipe's fatal error %v", e, err)
		}
	}
	if got := reg.Counter("devnet_client_gave_up_total").Value(); got != 1 {
		t.Fatalf("gave-up counted = %d, want 1", got)
	}
	if got := reg.Counter("devnet_client_timeouts_total").Value(); got != 3 {
		t.Fatalf("timeouts counted = %d, want 3", got)
	}
	if err := p.Submit(99, device.BatchRead, 0, nil); err == nil {
		t.Fatal("submit on a failed pipe succeeded")
	}
}
