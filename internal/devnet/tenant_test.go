package devnet_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/tenant"
)

// startTenantServer brings up a device, a tenant service
// over it, and a tenant-enabled server (no flat device) on a loopback
// port.
func startTenantServer(t *testing.T, sopts devnet.ServerOptions) (*tenant.Service, string) {
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
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("devnet-tenant-master")})
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
	return svc, ln.Addr().String()
}

// TestTenantWireRoundTrip drives the full tenant plane over TCP:
// provision, attach, data ops, rotation, introspection, and the control
// plane routed through the tenant service.
func TestTenantWireRoundTrip(t *testing.T) {
	svc, addr := startTenantServer(t, devnet.ServerOptions{})
	c, err := devnet.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	token, err := c.TenantCreate(1, 64, 0)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	want, err := svc.Token(1)
	if err != nil || token != want {
		t.Fatalf("token over the wire %x, local %x (%v)", token, want, err)
	}

	// Data ops before attach must be denied with the typed error.
	if _, _, err := c.TenantRead(1, 0); !errors.Is(err, tenant.ErrAuth) {
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
		if _, err := c.TenantWrite(1, i*nvm.LineSize, &line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 64; i++ {
		got, _, err := c.TenantRead(1, i*nvm.LineSize)
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
	info, err := c.TenantInfo(1)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if info.Epoch != 2 || info.Rotating {
		t.Fatalf("post-rotation info: %+v", info)
	}
	got, _, err := c.TenantRead(1, 0)
	if err != nil || got != testLine(0, 7) {
		t.Fatalf("post-rotation read: %v", err)
	}

	list, err := c.TenantList()
	if err != nil || len(list) != 1 || list[0].ID != 1 {
		t.Fatalf("list: %+v (%v)", list, err)
	}

	// Control plane routes to the tenant service's device.
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	h, err := c.Health()
	if err != nil || !h.Ready || h.Shards != 4 {
		t.Fatalf("health: %+v (%v)", h, err)
	}
	// Flat data ops are disabled in tenant-only mode.
	if _, _, err := c.Read(0); err == nil {
		t.Fatal("flat read succeeded on a tenant-only server")
	}
}

// TestTenantQuotaNotRetried: a quota rejection must surface immediately
// as a typed *TenantQuotaError — ClassQuota, not ClassBusy — without
// burning the retry budget.
func TestTenantQuotaNotRetried(t *testing.T) {
	_, addr := startTenantServer(t, devnet.ServerOptions{})
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
		if _, err := c.TenantWrite(1, 0, &line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	start := time.Now()
	_, err = c.TenantWrite(1, 0, &line)
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
	if devnet.Retryable(err) {
		t.Fatal("quota error claims to be retryable")
	}
	if elapsed > time.Second {
		t.Fatalf("quota rejection took %v — it was retried", elapsed)
	}
}

// TestTenantReattachAfterReconnect: killing the connection under an
// attached client must not strand it — the client replays the binding on
// its self-healed connection and the retried data op lands.
func TestTenantReattachAfterReconnect(t *testing.T) {
	_, addr := startTenantServer(t, devnet.ServerOptions{})
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
	if _, err := c.TenantWrite(1, 0, &line); err != nil {
		t.Fatal(err)
	}
	// Sever the transport out from under the client. The next op fails
	// over to a fresh connection, which starts unbound on the server; the
	// client must re-attach before retrying.
	c.BreakConnForTest()
	got, _, err := c.TenantRead(1, 0)
	if err != nil {
		t.Fatalf("read after reconnect: %v", err)
	}
	if got != line {
		t.Fatal("line diverged across reconnect")
	}
}
