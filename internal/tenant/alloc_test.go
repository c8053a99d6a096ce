package tenant_test

import (
	"testing"

	"soteria/internal/nvm"
	"soteria/internal/tenant"
)

// TestSingleTenantSteadyStateZeroAllocs pins the warm single-tenant
// read+write path — admission, guard cache hit, seal, two device ops —
// at zero heap allocations per operation. The first
// pass over the working set warms the guard cache and the key-domain
// engine; what remains is the pure datapath running out of service-owned
// scratch, each device op executing in place under its shard's lock.
func TestSingleTenantSteadyStateZeroAllocs(t *testing.T) {
	_, svc := newService(t, 4, tenant.Options{})
	const lines = 64
	if _, err := svc.Provision(1, lines, 0); err != nil {
		t.Fatal(err)
	}
	var l nvm.Line
	for i := uint64(0); i < lines; i++ {
		if _, err := svc.Write(1, i*nvm.LineSize, &l); err != nil {
			t.Fatal(err)
		}
	}
	i := uint64(0)
	avg := testing.AllocsPerRun(512, func() {
		addr := (i % lines) * nvm.LineSize
		if _, err := svc.Write(1, addr, &l); err != nil {
			t.Fatal(err)
		}
		if _, _, err := svc.Read(1, addr); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state tenant read+write allocates %.2f objects/op, want 0", avg)
	}
}
