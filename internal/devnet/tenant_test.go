package devnet_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
	"soteria/internal/tenant"
)

// startTenantServer brings up a device, a tenant service
// over it, and a tenant-enabled server (no flat device) on a loopback
// port.
func startTenantServer(t *testing.T, sopts devnet.ServerOptions) (*tenant.Service, *devnet.Server, string) {
	t.Helper()
	return startTenantServerWith(t, sopts, tenant.Options{})
}

// startTenantServerWith is startTenantServer with explicit tenant-layer
// options (quota window, burst factor); the master key is filled in.
func startTenantServerWith(t *testing.T, sopts devnet.ServerOptions, topts tenant.Options) (*tenant.Service, *devnet.Server, string) {
	t.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSAC,
		Key:    []byte("devnet-tenant-device-key"),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	topts.MasterKey = []byte("devnet-tenant-master")
	svc, err := tenant.New(dev, topts)
	if err != nil {
		t.Fatal(err)
	}
	sopts.Tenants = svc
	srv := devnet.NewServerWith(nil, sopts)
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
	return svc, srv, ln.Addr().String()
}

// TestTenantWireRoundTrip drives the full tenant plane over TCP:
// provision, attach, data ops, rotation, and introspection routed
// through the tenant service.
func TestTenantWireRoundTrip(t *testing.T) {
	svc, srv, addr := startTenantServer(t, devnet.ServerOptions{})
	c, err := devnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	token, err := c.TenantCreate(1, 64, 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := svc.Authenticate(1, token); err != nil {
		t.Fatalf("token over the wire %x does not authenticate: %v", token, err)
	}

	// Data ops before attach must be denied with the typed error: on a
	// tenant-only server there is no flat data plane to fall through to.
	if _, _, err := c.Read(0); !errors.Is(err, tenant.ErrAuth) {
		t.Fatalf("unattached read: %v", err)
	}
	// Attach with a wrong token must fail and not bind.
	if err := c.AttachTenant(1, token^1); !errors.Is(err, tenant.ErrAuth) {
		t.Fatalf("bad-token attach: %v", err)
	}
	if err := c.AttachTenant(1, token); err != nil {
		t.Fatalf("attach: %v", err)
	}

	for i := uint64(0); i < 64; i++ {
		line := testLine(i*nvm.LineSize, 7)
		if _, err := c.Write(i*nvm.LineSize, &line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 64; i++ {
		got, _, err := c.Read(i * nvm.LineSize)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != testLine(i*nvm.LineSize, 7) {
			t.Fatalf("line %d diverged over the wire", i)
		}
	}

	// Rotation over the wire, driven to completion.
	if err := c.TenantRotate(1); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	for {
		_, _, done, err := c.TenantRotateStep(1, 16)
		if err != nil {
			t.Fatalf("step: %v", err)
		}
		if done {
			break
		}
	}
	if st, err := svc.RotateStatus(1); err != nil || st.Epoch != 2 || st.Rotating {
		t.Fatalf("post-rotation status: %+v (%v)", st, err)
	}
	got, _, err := c.Read(0)
	if err != nil || got != testLine(0, 7) {
		t.Fatalf("post-rotation read: %v", err)
	}
	// A drain on a bound connection acknowledges (tenant writes are durable
	// at ack), and the extent is the whole address space a tenant can name.
	if err := c.Drain(0); err != nil {
		t.Fatalf("tenant drain: %v", err)
	}
	if _, _, err := c.Read(64 * nvm.LineSize); err == nil {
		t.Fatal("read one line past the tenant's extent succeeded")
	}

	if list := svc.Tenants(); len(list) != 1 || list[0].ID != 1 {
		t.Fatalf("tenants: %+v", list)
	}

	// Info and readiness describe the tenant service's device.
	if info, err := c.Info(); err != nil || info.Shards != 4 {
		t.Fatalf("info: %+v (%v)", info, err)
	}
	if h := srv.Health(); !h.Ready || h.Shards != 4 {
		t.Fatalf("health: %+v", h)
	}
}

// TestTenantQuotaNotRetried: a quota rejection must surface immediately
// as a typed *TenantQuotaError — ClassQuota, not ClassBusy — without
// burning the retry budget.
func TestTenantQuotaNotRetried(t *testing.T) {
	_, _, addr := startTenantServer(t, devnet.ServerOptions{})
	c, err := devnet.DialWith(addr, devnet.Options{
		// A long backoff makes an accidental retry visible as a timeout.
		Retry: devnet.RetryPolicy{MaxAttempts: 5, BaseBackoff: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	token, err := c.TenantCreate(1, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTenant(1, token); err != nil {
		t.Fatal(err)
	}
	var line nvm.Line
	for i := 0; i < 3; i++ {
		if _, err := c.Write(0, &line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	start := time.Now()
	_, err = c.Write(0, &line)
	elapsed := time.Since(start)
	var qe *devnet.TenantQuotaError
	if !errors.As(err, &qe) || !errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("quota error: %v", err)
	}
	if qe.Tenant != 1 || qe.Budget != 3 {
		t.Fatalf("quota detail: %+v", qe)
	}
	if devnet.ClassOf(err) != devnet.ClassQuota {
		t.Fatalf("class: %v", devnet.ClassOf(err))
	}
	if elapsed > time.Second {
		t.Fatalf("quota rejection took %v — it was retried", elapsed)
	}
}

// TestTenantReattachAfterReconnect: killing the connection under an
// attached client must not strand it — the client replays the binding on
// its self-healed connection and the retried data op lands.
func TestTenantReattachAfterReconnect(t *testing.T) {
	_, _, addr := startTenantServer(t, devnet.ServerOptions{})
	c, err := devnet.DialWith(addr, devnet.Options{
		Retry: devnet.RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	token, err := c.TenantCreate(1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachTenant(1, token); err != nil {
		t.Fatal(err)
	}
	line := testLine(0, 9)
	if _, err := c.Write(0, &line); err != nil {
		t.Fatal(err)
	}
	// Sever the transport out from under the client. The next op fails
	// over to a fresh connection, which starts unbound on the server; the
	// client must re-attach before retrying.
	c.BreakConnForTest()
	got, _, err := c.Read(0)
	if err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
	if got != line {
		t.Fatal("line diverged across reconnect")
	}
}

// tenantPipe dials a pipe and attaches it as tenant id. Outcomes land in
// the returned map by tag (nil = success); reads land in data.
type tenantPipe struct {
	*devnet.Pipe
	outcomes map[uint64]error
	data     map[uint64]nvm.Line
}

func dialTenantPipe(t *testing.T, addr string, id uint32, token uint64, opts devnet.PipeOptions) *tenantPipe {
	t.Helper()
	tp := &tenantPipe{outcomes: map[uint64]error{}, data: map[uint64]nvm.Line{}}
	p, err := devnet.DialPipe(addr, func(tag uint64, op uint8, line *nvm.Line, _ sim.Time, err error) {
		if _, dup := tp.outcomes[tag]; dup {
			t.Errorf("op %d delivered twice", tag)
		}
		tp.outcomes[tag] = err
		if line != nil {
			tp.data[tag] = *line
		}
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	tp.Pipe = p
	if id != 0 {
		if err := p.AttachTenant(id, token); err != nil {
			t.Fatalf("attach tenant %d: %v", id, err)
		}
	}
	return tp
}

// TestTenantPipeAcrossServerRestart is the acked-write + exactly-once
// oracle for a tenant-bound Pipe: the server is aborted with batches in
// flight and replaced on the same address with the same dedup table.
// Retransmitted tenant batches can only land once the link has replayed
// the binding on the new connection (an unbound batch is denied per
// frame, which would fail the pipe), every op is delivered exactly once,
// every acknowledged write reads back, and the two server incarnations
// together applied exactly as many writes as were acknowledged.
func TestTenantPipeAcrossServerRestart(t *testing.T) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSAC,
		Key:    []byte("devnet-tenant-device-key"),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("devnet-tenant-master")})
	if err != nil {
		t.Fatal(err)
	}
	const lines = 128
	token, err := svc.Provision(1, lines, 0)
	if err != nil {
		t.Fatal(err)
	}
	serverReg := telemetry.NewRegistry()
	sopts := devnet.ServerOptions{Tenants: svc, Sessions: devnet.NewSessionTable(0, 0), Telemetry: serverReg}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := devnet.NewServerWith(nil, sopts)
	go srv.Serve(ln)

	clientReg := telemetry.NewRegistry()
	p := dialTenantPipe(t, addr, 1, token, devnet.PipeOptions{
		Options: devnet.Options{
			OpTimeout: 500 * time.Millisecond,
			Retry: devnet.RetryPolicy{
				MaxAttempts: -1,
				MaxElapsed:  10 * time.Second,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
			},
			Telemetry: clientReg,
		},
		Window:   4,
		MaxBatch: 32,
	})

	// Three sealed batches ride the connection unanswered (the window has
	// room for a fourth, so nothing has been received yet) when the server
	// dies; the fourth is written into the dead connection.
	const writes = 4 * lines
	submit := func(from, to uint64) {
		for i := from; i < to; i++ {
			line := testLine(i, 0x3c)
			if err := p.Submit(i, device.BatchWrite, (i%lines)*nvm.LineSize, &line); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}
	submit(0, 96)
	srv.Abort()
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	srv2 := devnet.NewServerWith(nil, sopts)
	done := make(chan struct{})
	go func() { defer close(done); srv2.Serve(ln2) }()
	defer func() { srv2.Shutdown(); <-done }()
	submit(96, writes)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush across restart: %v", err)
	}
	for i := uint64(0); i < writes; i++ {
		if err, ok := p.outcomes[i]; !ok || err != nil {
			t.Fatalf("write %d: delivered=%v err=%v", i, ok, err)
		}
	}
	if got := serverReg.Counter("devnet_server_applied_writes_total").Value(); got != writes {
		t.Fatalf("applied writes %d != acknowledged writes %d (retransmit applied twice or ack leaked)", got, writes)
	}
	if clientReg.Counter("devnet_client_reconnects_total").Value() == 0 ||
		clientReg.Counter("devnet_client_batch_retransmits_total").Value() == 0 {
		t.Fatalf("restart was not ridden out by reconnect + retransmit: %v", clientReg.Snapshot().Counters)
	}
	if got := clientReg.Counter("devnet_client_retries_total").Value(); got != 0 {
		t.Fatalf("go-back-N recovery leaked into %d per-op retries", got)
	}
	// Content oracle, over the same still-bound pipe: each line holds its
	// last acknowledged write.
	for l := uint64(0); l < lines; l++ {
		if err := p.Submit(1_000_000+l, device.BatchRead, l*nvm.LineSize, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	for l := uint64(0); l < lines; l++ {
		if err := p.outcomes[1_000_000+l]; err != nil {
			t.Fatalf("read back line %d: %v", l, err)
		}
		if p.data[1_000_000+l] != testLine(writes-lines+l, 0x3c) {
			t.Fatalf("line %d: acknowledged write lost or mangled across the restart", l)
		}
	}
}

// TestTenantBatchPerEntryRejects: admission rejects surface per entry
// inside a batch that executed, through the one wire error codec, and the
// client applies the per-op retry rule to each. A hard-quota reject is
// typed and final; a fair-share reject is re-sent under a new sequence
// number (the executed batch is cached with the failure in it, so the
// same one could only ever replay it) and lands once the other tenants'
// traffic has rolled the quota window. The two cannot share a batch:
// admission checks the quota first and both gates read the same
// per-window counter, so a tenant past its fair share stops being charged
// before it can reach a larger quota.
func TestTenantBatchPerEntryRejects(t *testing.T) {
	// Three active tenants and a 12-op window: the fair share is 2*12/3 = 8.
	svc, _, addr := startTenantServerWith(t, devnet.ServerOptions{}, tenant.Options{QuotaWindow: 12})
	tokens := map[uint32]uint64{}
	for id, quota := range map[uint32]uint32{1: 3, 2: 0, 3: 0} {
		var err error
		if tokens[id], err = svc.Provision(id, 16, quota); err != nil {
			t.Fatal(err)
		}
	}
	reg := telemetry.NewRegistry()
	opts := devnet.PipeOptions{
		Options:  devnet.Options{Telemetry: reg, Retry: devnet.RetryPolicy{BaseBackoff: time.Millisecond}},
		MaxBatch: 16,
	}
	submit := func(p *tenantPipe, n uint64) {
		for i := uint64(0); i < n; i++ {
			line := testLine(i, 1)
			if err := p.Submit(i, device.BatchWrite, i*nvm.LineSize, &line); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Tenant 1, quota 3: one batch of five writes.
	quota := dialTenantPipe(t, addr, 1, tokens[1], opts)
	submit(quota, 5)
	if err := quota.Flush(); err != nil {
		t.Fatalf("a per-entry quota reject poisoned the pipe: %v", err)
	}
	for i := uint64(0); i < 5; i++ {
		err := quota.outcomes[i]
		var qe *devnet.TenantQuotaError
		switch {
		case i < 3 && err != nil:
			t.Fatalf("write %d inside the budget: %v", i, err)
		case i >= 3 && (!errors.As(err, &qe) || qe.Tenant != 1 || qe.Budget != 3):
			t.Fatalf("write %d past the budget: %v, want *TenantQuotaError", i, err)
		}
	}
	if got := reg.Counter("devnet_client_retries_total").Value(); got != 0 {
		t.Fatalf("quota rejects were retried %d times", got)
	}

	// Tenant 2, no quota: one batch of twelve writes, four past the share.
	fair := dialTenantPipe(t, addr, 2, tokens[2], opts)
	submit(fair, 12)
	if err := fair.Kick(); err != nil {
		t.Fatal(err)
	}
	if err := fair.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(fair.outcomes) != 8 {
		t.Fatalf("%d of 12 entries settled by the first batch, want the 8 inside the share", len(fair.outcomes))
	}
	if got := reg.Counter("devnet_client_retries_total").Value(); got != 4 {
		t.Fatalf("%d entries re-queued, want the 4 past the share", got)
	}
	// Tenant 3 finishes the window (3 + 8 ops admitted so far), so the
	// re-sent entries meet a fresh one.
	var line nvm.Line
	if _, err := svc.Write(3, 0, &line); err != nil {
		t.Fatal(err)
	}
	if err := fair.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 12; i++ {
		if err, ok := fair.outcomes[i]; !ok || err != nil {
			t.Fatalf("write %d: delivered=%v err=%v", i, ok, err)
		}
	}
	c := reg.Snapshot().Counters
	if c["devnet_client_retries_total"] != 4 || c["devnet_client_busy_waits_total"] != 4 ||
		c["devnet_client_batch_retransmits_total"] != 0 || c["devnet_client_gave_up_total"] != 0 {
		t.Fatalf("fair-share rejects were not re-queued once each under a new sequence number: %v", c)
	}
}

// TestUnboundBatchDeniedOnTenantOnlyServer: without a flat device every
// line belongs to some tenant's key domain, so a batch frame from a
// connection that never attached is denied as a frame — typed, final, and
// before any entry runs.
func TestUnboundBatchDeniedOnTenantOnlyServer(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc, _, addr := startTenantServer(t, devnet.ServerOptions{Telemetry: reg})
	if _, err := svc.Provision(1, 8, 0); err != nil {
		t.Fatal(err)
	}
	p := dialTenantPipe(t, addr, 0, 0, devnet.PipeOptions{
		// A long backoff makes an accidental retry visible as a timeout.
		Options: devnet.Options{Retry: devnet.RetryPolicy{BaseBackoff: 2 * time.Second}},
	})
	line := testLine(0, 1)
	if err := p.Submit(1, device.BatchWrite, 0, &line); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(2, device.BatchRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := p.Flush()
	if !errors.Is(err, tenant.ErrAuth) {
		t.Fatalf("unbound batch: %v, want a tenant denial", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("the denial was retried")
	}
	if !errors.Is(p.outcomes[1], tenant.ErrAuth) || !errors.Is(p.outcomes[2], tenant.ErrAuth) {
		t.Fatalf("entries of a denied frame: %v / %v", p.outcomes[1], p.outcomes[2])
	}
	if got := reg.Counter("devnet_server_applied_writes_total").Value(); got != 0 {
		t.Fatalf("a denied frame applied %d writes", got)
	}
}

// TestTenantIsolationOnTheWire is the isolation half of the tenant
// oracle over loopback: four bound pipes, one goroutine each, write and
// read the same tenant-local addresses at once — so the tenant service's
// one mutex is contended by pipelined connections — and each reads back
// only its own content. A binding cannot name another tenant's extent, in
// range or out of it. (That it cannot obtain another tenant's cached
// responses either is TestDedupReplayRequiresSameBinding.)
func TestTenantIsolationOnTheWire(t *testing.T) {
	svc, _, addr := startTenantServer(t, devnet.ServerOptions{})
	const tenants, lines, rounds = 4, 32, 4
	pipes := make([]*tenantPipe, tenants)
	for i := range pipes {
		token, err := svc.Provision(uint32(i+1), lines, 0)
		if err != nil {
			t.Fatal(err)
		}
		pipes[i] = dialTenantPipe(t, addr, uint32(i+1), token, devnet.PipeOptions{Window: 4, MaxBatch: 8})
	}
	var wg sync.WaitGroup
	for i, p := range pipes {
		wg.Add(1)
		go func(id byte, p *tenantPipe) {
			defer wg.Done()
			for r := byte(0); r < rounds; r++ {
				for l := uint64(0); l < lines; l++ {
					line := testLine(l, id^r<<4)
					if err := p.Submit(uint64(r)<<32|l, device.BatchWrite, l*nvm.LineSize, &line); err != nil {
						t.Error(err)
						return
					}
				}
			}
			// One read per line, after the writes have settled (the pipe
			// does not order ops in flight), plus one a line past the extent.
			if err := p.Flush(); err != nil {
				t.Error(err)
				return
			}
			const reads = 1 << 40
			for l := uint64(0); l <= lines; l++ {
				if err := p.Submit(reads|l, device.BatchRead, l*nvm.LineSize, nil); err != nil {
					t.Error(err)
					return
				}
			}
			if err := p.Flush(); err != nil {
				t.Error(err)
				return
			}
			for l := uint64(0); l < lines; l++ {
				if err := p.outcomes[reads|l]; err != nil {
					t.Errorf("tenant %d line %d: %v", id, l, err)
				} else if p.data[reads|l] != testLine(l, id^(rounds-1)<<4) {
					t.Errorf("tenant %d line %d: read foreign or stale content", id, l)
				}
			}
			if p.outcomes[reads|lines] == nil {
				t.Errorf("tenant %d read one line past its extent", id)
			}
		}(byte(i+1), p)
	}
	wg.Wait()
}
