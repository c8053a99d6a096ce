package loadgen_test

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/devnet"
	"soteria/internal/loadgen"
	"soteria/internal/memctrl"
	"soteria/internal/tenant"
)

// compile-time: the wire client and the in-process adapter both bind to
// a tenant and drive its rotation.
var (
	_ loadgen.TenantConn = (*devnet.Client)(nil)
	_ loadgen.TenantConn = loadgen.NewLocalTenantConn(nil)
)

// newTenantService provisions n equal tenants on a fresh device and
// returns the service plus the stream specs.
func newTenantService(t *testing.T, n int, lines uint64) (*tenant.Service, []loadgen.TenantSpec) {
	t.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSAC,
		Key:    []byte("loadgen-tenant-device-key"),
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("loadgen-tenant-master")})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]loadgen.TenantSpec, n)
	for i := range specs {
		id := uint32(i + 1)
		token, err := svc.Provision(id, lines, 0)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = loadgen.TenantSpec{ID: id, Token: token}
	}
	return svc, specs
}

// TestRunTenantsDeterministic: two identical runs over fresh services
// must render byte-identical reports, every stream must complete its
// share, and the run must verify reads against its own content oracle.
func TestRunTenantsDeterministic(t *testing.T) {
	var first []byte
	for run := 0; run < 2; run++ {
		svc, specs := newTenantService(t, 4, 64)
		rep, err := loadgen.RunTenants(loadgen.TenantParams{
			Dial:     func() (loadgen.TenantConn, error) { return loadgen.NewLocalTenantConn(svc), nil },
			Tenants:  specs,
			Ops:      800,
			Seed:     42,
			Workload: "hashmap",
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Per {
			if p.Ops == 0 {
				t.Fatalf("tenant %d did no work: %+v", p.ID, p)
			}
		}
		if rep.Verified == 0 {
			t.Fatal("no reads were verified against the content oracle")
		}
		if rep.Fairness <= 0.5 || rep.Fairness > 1.0 {
			t.Fatalf("implausible fairness index %v", rep.Fairness)
		}
		var buf bytes.Buffer
		if err := rep.WriteMarkdown(&buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("reports differ across identical runs:\n%s\n----\n%s", first, buf.Bytes())
		}
	}
}

// TestRunTenantsRotationUnderLoad arms an online key rotation mid-run
// and checks it completes while the streams keep verifying content —
// i.e. lazy re-encryption never serves a stale or foreign line.
func TestRunTenantsRotationUnderLoad(t *testing.T) {
	svc, specs := newTenantService(t, 3, 48)
	rep, err := loadgen.RunTenants(loadgen.TenantParams{
		Dial:         func() (loadgen.TenantConn, error) { return loadgen.NewLocalTenantConn(svc), nil },
		Tenants:      specs,
		Ops:          600,
		Seed:         7,
		Workload:     "hashmap",
		RotateTenant: 2,
		RotateAt:     100,
		RotateStride: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	rot := rep.Rotation
	if rot == nil || !rot.Done {
		t.Fatalf("rotation did not finish: %+v", rot)
	}
	if rot.Lines == 0 || rot.StartedAtOp < 100 || rot.DoneAtOp < rot.StartedAtOp {
		t.Fatalf("implausible rotation result: %+v", rot)
	}
	var epoch uint32
	for _, rec := range svc.Tenants() {
		if rec.ID == 2 {
			epoch = rec.Epoch
		}
	}
	if epoch != 2 {
		t.Fatalf("tenant 2 epoch = %d, want 2", epoch)
	}
	if err := svc.VerifyTenant(2); err != nil {
		t.Fatalf("post-rotation verify: %v", err)
	}
}

// TestRunTenantsRotatesOnlyAStream: the rotation runs over the rotating
// tenant's own session, so a rotation armed for a tenant with no stream
// is refused before any op runs.
func TestRunTenantsRotatesOnlyAStream(t *testing.T) {
	svc, specs := newTenantService(t, 2, 16)
	_, err := loadgen.RunTenants(loadgen.TenantParams{
		Dial:         func() (loadgen.TenantConn, error) { return loadgen.NewLocalTenantConn(svc), nil },
		Tenants:      specs[:1],
		Ops:          100,
		Workload:     "hashmap",
		RotateTenant: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "rotate tenant 2") {
		t.Fatalf("rotation of a tenant without a stream: %v", err)
	}
	if st, err := svc.RotateStatus(2); err != nil || st.Epoch != 1 || st.Rotating {
		t.Fatalf("tenant 2 rotation status %+v (%v)", st, err)
	}
}

// TestRunTenantsOverWire runs the same generator against a tenant-mode
// server over TCP, one session per tenant, the rotation driven over the
// rotating tenant's own session (the server denies it on any other).
func TestRunTenantsOverWire(t *testing.T) {
	svc, specs := newTenantService(t, 2, 32)
	addr := serveTenants(t, svc)
	rep, err := loadgen.RunTenants(loadgen.TenantParams{
		Dial:         func() (loadgen.TenantConn, error) { return devnet.Dial(addr) },
		Tenants:      specs,
		Ops:          300,
		Seed:         3,
		Workload:     "hashmap",
		RotateTenant: 1,
		RotateAt:     60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rotation == nil || !rep.Rotation.Done {
		t.Fatalf("rotation over the wire did not finish: %+v", rep.Rotation)
	}
	if rep.Verified == 0 {
		t.Fatal("no reads verified over the wire")
	}
}

func serveTenants(t *testing.T, svc *tenant.Service) string {
	t.Helper()
	srv := devnet.NewServerWith(nil, devnet.ServerOptions{Tenants: svc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); srv.Serve(ln) }()
	t.Cleanup(func() { srv.Shutdown(); <-done })
	return ln.Addr().String()
}
