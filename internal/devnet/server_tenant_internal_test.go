package devnet

import (
	"bytes"
	"errors"
	"net"
	"reflect"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/tenant"
)

// TestTenantPlaneAnswersOnlyItsBoundTenant: no wire op changes state, or
// reveals device-wide state, outside the tenant its connection is bound
// to. From an unbound connection and from one bound to tenant 2, the
// retired create op provisions nothing, tenant 1's rotation can be
// neither started nor stepped, and the device's info and telemetry are
// denied. Tenant 2 still rotates its own keys over its connection. On a
// server that also serves a flat device, an unbound peer keeps the flat
// device's info and a bound one is still denied it.
func TestTenantPlaneAnswersOnlyItsBoundTenant(t *testing.T) {
	newService := func(key string) *tenant.Service {
		dev, err := device.New(device.Options{System: config.TestSystem(), Mode: memctrl.ModeSRC, Key: []byte(key), Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dev.Close() })
		svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte(key + "-master")})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	serve := func(flat *device.Device, svc *tenant.Service) string {
		srv := NewServerWith(flat, ServerOptions{Tenants: svc})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); srv.Serve(ln) }()
		t.Cleanup(func() { srv.Shutdown(); <-done })
		return ln.Addr().String()
	}
	// dial opens a raw connection, attached as tenant id unless id is 0.
	dial := func(addr string, id uint32, token uint64) net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if id != 0 {
			if resp := exchange(t, conn, appendAttach(nil, 0, 0, id, token)[frameHeaderSize:]); resp[0] != StatusOK {
				t.Fatalf("attach tenant %d: status %d", id, resp[0])
			}
		}
		return conn
	}
	// send runs one session-0 request and returns the response and the
	// error its status maps to.
	send := func(conn net.Conn, op uint8, body []byte) (wireResponse, error) {
		resp, err := parseResponse(exchange(t, conn, append(encodeRequest(op, 0, 1, len(body)), body...)))
		if err != nil {
			t.Fatal(err)
		}
		return resp, statusError(resp.status, resp.body)
	}

	svc := newService("bound-tenant")
	tokens := map[uint32]uint64{}
	for id := uint32(1); id <= 2; id++ {
		var err error
		if tokens[id], err = svc.Provision(id, 16, 0); err != nil {
			t.Fatal(err)
		}
	}
	addr := serve(nil, svc)
	registry := svc.Tenants()
	before, err := svc.RotateStatus(1)
	if err != nil {
		t.Fatal(err)
	}

	create := putU32(putU64(putU32(nil, 3), 16), 0) // [u32 tenant][u64 lines][u32 quota]
	for name, id := range map[string]uint32{"unbound": 0, "bound to tenant 2": 2} {
		conn := dial(addr, id, tokens[id])
		if resp, _ := send(conn, 14, create); resp.status != StatusError || !bytes.Contains(resp.body, []byte("unknown op")) {
			t.Errorf("%s: op 14 answered status %d %q, want unknown op", name, resp.status, resp.body)
		}
		if got := svc.Tenants(); !reflect.DeepEqual(got, registry) {
			t.Errorf("%s: op 14 changed the registry to %+v", name, got)
		}
		rotate := TenantFrame{Op: OpTenantRotate, Tenant: 1}
		step := TenantFrame{Op: OpTenantStep, Tenant: 1, Max: 64}
		for _, f := range []TenantFrame{rotate, step} {
			if _, err := send(conn, f.Op, f.Encode()); !errors.Is(err, tenant.ErrAuth) {
				t.Errorf("%s: op %d on tenant 1: %v, want StatusTenantDenied", name, f.Op, err)
			}
		}
		if st, err := svc.RotateStatus(1); err != nil || st != before {
			t.Errorf("%s: tenant 1 rotation status %+v (%v), want %+v", name, st, err, before)
		}
		for _, op := range []uint8{OpInfo, OpSnapshot} {
			if _, err := send(conn, op, nil); !errors.Is(err, tenant.ErrAuth) {
				t.Errorf("%s: op %d on a tenant-only server: %v, want StatusTenantDenied", name, op, err)
			}
		}
	}

	// The bound tenant rotates itself, over its own connection.
	own := dial(addr, 2, tokens[2])
	if _, err := send(own, OpTenantRotate, (&TenantFrame{Op: OpTenantRotate, Tenant: 2}).Encode()); err != nil {
		t.Fatalf("tenant 2 rotate: %v", err)
	}
	resp, err := send(own, OpTenantStep, (&TenantFrame{Op: OpTenantStep, Tenant: 2, Max: 64}).Encode())
	if err != nil || !bytes.Equal(resp.body, []byte{1, 0, 0, 0, 0}) {
		t.Fatalf("tenant 2 step: body %x (%v), want done with 0 rotated", resp.body, err)
	}
	if st, err := svc.RotateStatus(2); err != nil || st.Epoch != 2 || st.Rotating {
		t.Fatalf("tenant 2 after its own rotation: %+v (%v)", st, err)
	}

	// Beside a flat device, the flat device's info is the unbound peer's.
	mixed := newService("mixed-tenant")
	token, err := mixed.Provision(1, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	flatDev, err := device.New(device.Options{System: config.TestSystem(), Mode: memctrl.ModeSRC, Key: []byte("mixed-flat"), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flatDev.Close() })
	mixedAddr := serve(flatDev, mixed)
	if _, err := send(dial(mixedAddr, 0, 0), OpInfo, nil); err != nil {
		t.Errorf("unbound info beside a flat device: %v", err)
	}
	if _, err := send(dial(mixedAddr, 1, token), OpInfo, nil); !errors.Is(err, tenant.ErrAuth) {
		t.Errorf("bound info beside a flat device: %v, want StatusTenantDenied", err)
	}
}
