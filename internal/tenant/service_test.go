package tenant_test

import (
	"errors"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/tenant"
)

func newDevice(t testing.TB, shards int) *device.Device {
	t.Helper()
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   memctrl.ModeSAC,
		Key:    []byte("tenant-test-device-key"),
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dev.Close() })
	return dev
}

func newService(t testing.TB, shards int, opts tenant.Options) (*device.Device, *tenant.Service) {
	t.Helper()
	if opts.MasterKey == nil {
		opts.MasterKey = []byte("tenant-test-master-key")
	}
	dev := newDevice(t, shards)
	svc, err := tenant.New(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dev, svc
}

func fill(b byte) *nvm.Line {
	var l nvm.Line
	for i := range l {
		l[i] = b
	}
	return &l
}

// TestRoundTripAndPersistence: writes read back, survive a reopen of the
// service on the same device, and unwritten lines read as zeros.
func TestRoundTripAndPersistence(t *testing.T) {
	dev, svc := newService(t, 4, tenant.Options{})
	tok, err := svc.Provision(1, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lines, err := svc.Authenticate(1, tok); err != nil || lines != 32 {
		t.Fatalf("authenticate: %d lines, %v", lines, err)
	}
	for i := 0; i < 32; i += 2 {
		if _, err := svc.Write(1, uint64(i)*nvm.LineSize, fill(byte(i+1))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	check := func(s *tenant.Service) {
		t.Helper()
		for i := 0; i < 32; i++ {
			got, _, err := s.Read(1, uint64(i)*nvm.LineSize)
			if err != nil {
				t.Fatalf("read %d: %v", i, err)
			}
			want := nvm.Line{}
			if i%2 == 0 {
				want = *fill(byte(i + 1))
			}
			if got != want {
				t.Fatalf("line %d: got %x want %x", i, got[0], want[0])
			}
		}
	}
	check(svc)

	// Reopen on the same device: registry and data must come back.
	svc2, err := tenant.New(dev, tenant.Options{MasterKey: []byte("tenant-test-master-key")})
	if err != nil {
		t.Fatal(err)
	}
	check(svc2)

	// Wrong master key must be rejected at open.
	if _, err := tenant.New(dev, tenant.Options{MasterKey: []byte("wrong")}); err == nil {
		t.Fatal("opened the registry with the wrong master key")
	}
}

// TestTypedErrors: every admission failure carries its typed error.
func TestTypedErrors(t *testing.T) {
	_, svc := newService(t, 2, tenant.Options{QuotaWindow: 64})
	if _, err := svc.Provision(1, 8, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Provision(1, 8, 0); !errors.Is(err, tenant.ErrExists) {
		t.Fatalf("double provision: %v", err)
	}
	if _, _, err := svc.Read(2, 0); !errors.Is(err, tenant.ErrNoSuchTenant) {
		t.Fatalf("absent tenant: %v", err)
	}
	if _, err := svc.Authenticate(1, 0xdead); !errors.Is(err, tenant.ErrAuth) {
		t.Fatalf("bad token: %v", err)
	}
	var re *tenant.RangeError
	if _, _, err := svc.Read(1, 8*nvm.LineSize); !errors.As(err, &re) {
		t.Fatalf("out of extent: %v", err)
	}
	if _, _, err := svc.Read(1, 7); !errors.As(err, &re) {
		t.Fatalf("unaligned: %v", err)
	}
	// Quota: 4 ops then a typed, non-retryable *QuotaError.
	for i := 0; i < 4; i++ {
		if _, _, err := svc.Read(1, 0); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	var qe *tenant.QuotaError
	_, _, err := svc.Read(1, 0)
	if !errors.As(err, &qe) || !errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("quota: %v", err)
	}
	if qe.Tenant != 1 || qe.Budget != 4 {
		t.Fatalf("quota detail: %+v", qe)
	}
}

// TestFairShare: with two active tenants, a hog is throttled with a
// retryable BusyError (shard -2) once past its share, while the other
// tenant still gets in; a lone tenant is never throttled.
func TestFairShare(t *testing.T) {
	_, svc := newService(t, 2, tenant.Options{QuotaWindow: 64, FairBurst: 1})
	if _, err := svc.Provision(1, 8, 0); err != nil {
		t.Fatal(err)
	}
	// Lone tenant: the whole window is its share.
	for i := 0; i < 100; i++ {
		if _, _, err := svc.Read(1, 0); err != nil {
			t.Fatalf("lone op %d: %v", i, err)
		}
	}
	if _, err := svc.Provision(2, 8, 0); err != nil {
		t.Fatal(err)
	}
	// Two tenants, share = 64/2 = 32. Let tenant 1 hog.
	var be *device.BusyError
	hogged := 0
	for i := 0; i < 64; i++ {
		_, _, err := svc.Read(1, 0)
		if err == nil {
			hogged++
			continue
		}
		if !errors.As(err, &be) {
			t.Fatalf("hog op %d: %v", i, err)
		}
		break
	}
	if be == nil || be.Shard != -2 {
		t.Fatalf("expected tenant-gate BusyError, got %+v after %d ops", be, hogged)
	}
	if hogged > 32 {
		t.Fatalf("hog admitted %d ops, share is 32", hogged)
	}
	// The other tenant must still be admitted.
	if _, _, err := svc.Read(2, 0); err != nil {
		t.Fatalf("victim read: %v", err)
	}
}

// TestIsolation: a tenant's ciphertext never authenticates under another
// tenant's key domain, and tenant-local addressing cannot name foreign
// lines at all.
func TestIsolation(t *testing.T) {
	_, svc := newService(t, 4, tenant.Options{})
	if _, err := svc.Provision(1, 16, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Provision(2, 16, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := svc.Write(1, uint64(i)*nvm.LineSize, fill(0xAA)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if err := svc.CrossCheck(2, 1, uint64(i)*nvm.LineSize); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if err := svc.CrossCheck(1, 2, uint64(i)*nvm.LineSize); err != nil {
			t.Fatalf("reverse line %d: %v", i, err)
		}
	}
	if err := svc.VerifyTenant(1); err != nil {
		t.Fatal(err)
	}
	if err := svc.VerifyTenant(2); err != nil {
		t.Fatal(err)
	}
}

// TestRotationUnderLoad: begin a rotation, interleave writes and sweep
// steps, and assert zero acknowledged-write loss plus epoch retirement at
// completion.
func TestRotationUnderLoad(t *testing.T) {
	_, svc := newService(t, 4, tenant.Options{})
	const lines = 64
	if _, err := svc.Provision(1, lines, 0); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]nvm.Line{}
	for i := 0; i < lines; i++ {
		l := fill(byte(i))
		if _, err := svc.Write(1, uint64(i)*nvm.LineSize, l); err != nil {
			t.Fatal(err)
		}
		want[uint64(i)] = *l
	}
	if err := svc.Rotate(1); err != nil {
		t.Fatal(err)
	}
	if err := svc.Rotate(1); !errors.Is(err, tenant.ErrRotating) {
		t.Fatalf("double rotate: %v", err)
	}
	// Live load during the sweep: writes land in the new epoch, reads
	// lazily rewrite, the sweep mops up the rest.
	step := 0
	for {
		st, err := svc.RotateStatus(1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			break
		}
		// Interleaved traffic.
		wl := uint64(step % lines)
		l := fill(byte(0x80 + step))
		if _, err := svc.Write(1, wl*nvm.LineSize, l); err != nil {
			t.Fatal(err)
		}
		want[wl] = *l
		rl := uint64((step * 7) % lines)
		got, _, err := svc.Read(1, rl*nvm.LineSize)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[rl] {
			t.Fatalf("mid-rotation read %d diverged", rl)
		}
		if _, _, err := svc.RotateStep(1, 8); err != nil {
			t.Fatal(err)
		}
		step++
	}
	if rotated, done, err := svc.RotateStep(1, 8); rotated != 0 || !done || err != nil {
		t.Fatalf("step after completion: %d rotated, done %v, %v", rotated, done, err)
	}
	st, _ := svc.RotateStatus(1)
	if st.Epoch != 2 {
		t.Fatalf("epoch %d after one rotation", st.Epoch)
	}
	for i := uint64(0); i < lines; i++ {
		got, _, err := svc.Read(1, i*nvm.LineSize)
		if err != nil {
			t.Fatalf("post-rotation read %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("post-rotation line %d diverged", i)
		}
	}
	if err := svc.VerifyTenant(1); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoverMidRotation: a power cut in the middle of a rotation
// sweep loses no acknowledged write; after recovery the rotation resumes
// from cursor zero and completes.
func TestCrashRecoverMidRotation(t *testing.T) {
	_, svc := newService(t, 4, tenant.Options{})
	const lines = 32
	if _, err := svc.Provision(1, lines, 0); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]nvm.Line{}
	for i := 0; i < lines; i++ {
		l := fill(byte(i + 1))
		if _, err := svc.Write(1, uint64(i)*nvm.LineSize, l); err != nil {
			t.Fatal(err)
		}
		want[uint64(i)] = *l
	}
	if err := svc.Rotate(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.RotateStep(1, lines/2); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}
	st, err := svc.RotateStatus(1)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rotating || st.Cursor != 0 {
		t.Fatalf("rotation state after recovery: %+v", st)
	}
	for i := uint64(0); i < lines; i++ {
		got, _, err := svc.Read(1, i*nvm.LineSize)
		if err != nil {
			t.Fatalf("post-crash read %d: %v", i, err)
		}
		if got != want[i] {
			t.Fatalf("post-crash line %d diverged", i)
		}
	}
	for {
		_, done, err := svc.RotateStep(1, 8)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if err := svc.VerifyTenant(1); err != nil {
		t.Fatal(err)
	}
}

// TestTelemetryPerTenant: the per-tenant registries count the right ops.
func TestTelemetryPerTenant(t *testing.T) {
	_, svc := newService(t, 2, tenant.Options{Telemetry: true, QuotaWindow: 64})
	if _, err := svc.Provision(1, 8, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Write(1, 0, fill(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Write(1, 0, fill(1)); !errors.Is(err, tenant.ErrQuota) {
		t.Fatal("expected quota rejection")
	}
	snap, err := svc.Snapshot(1)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["tenant_writes_total"] != 3 {
		t.Fatalf("writes counter: %+v", snap.Counters)
	}
	if snap.Counters["tenant_quota_rejects_total"] != 1 {
		t.Fatalf("quota counter: %+v", snap.Counters)
	}
}
