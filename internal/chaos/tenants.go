package chaos

import (
	"errors"
	"fmt"

	"soteria/internal/device"
	"soteria/internal/nvm"
	"soteria/internal/tenant"
)

// TenantConfig fully determines one multi-tenant chaos scenario: a tenant
// service over the sharded device, a deterministic workload
// interleaved round-robin across tenants, an optional online key rotation
// of tenant 1 beginning mid-workload, and a power cut at a chosen
// device-wide write boundary.
type TenantConfig struct {
	// DeviceConfig shapes the device under the service. Its CrashAt counts
	// device-wide boundaries: tenant-layer guard and registry writes cross
	// them like any other line, so the sweep hits mid-protocol points for
	// free.
	DeviceConfig
	// Tenants is the number of provisioned tenants (default 3).
	Tenants int
	// LinesPerTenant sizes each tenant's extent (default 48).
	LinesPerTenant uint64
	// RotateAt begins an online key rotation of tenant 1 before this
	// workload op, with sweep steps interleaved into the remaining ops;
	// negative disables. Crashing after RotateAt exercises the
	// mid-rotation recovery path.
	RotateAt int
}

func (cfg TenantConfig) normalized() TenantConfig {
	cfg.DeviceConfig = cfg.DeviceConfig.normalized()
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.LinesPerTenant == 0 {
		cfg.LinesPerTenant = 48
	}
	return cfg
}

// Repro always names the rotation point, -1 included: cmd/chaos rotates
// mid-workload when -rotate-at is absent.
func (cfg TenantConfig) Repro() string {
	cfg = cfg.normalized()
	return fmt.Sprintf("go run ./cmd/chaos -tenants -tenant-count %d %s -rotate-at %d",
		cfg.Tenants, cfg.flags(), cfg.RotateAt) + crashFlag(cfg.CrashAt)
}

func (cfg TenantConfig) header() string {
	n := cfg.normalized()
	return fmt.Sprintf("tenant crash sweep: %d tenants, %d shards, ", n.Tenants, n.Shards) + "%d workload boundaries, stride %d"
}

func (cfg TenantConfig) crashingAt(k int) Target {
	cfg.CrashAt = k
	return cfg
}

// tenantStack drives the tenant service over the sharded device: tenant
// ids and tenant-local addresses, tenant 1's online rotation stepped
// alongside the workload, and the isolation oracle after every read-back.
type tenantStack struct {
	devStack
	svc          *tenant.Service
	cfg          TenantConfig
	rotating     bool // rotation of tenant 1 has begun
	rotationDone bool
}

func (cfg TenantConfig) build() (*scenario, error) {
	cfg = cfg.normalized()
	d, err := newDevStack(cfg.DeviceConfig)
	if err != nil {
		return nil, err
	}
	t := &tenantStack{devStack: *d, cfg: cfg}
	if t.svc, err = tenant.New(d.dev, tenant.Options{MasterKey: []byte("chaos-tenant-master")}); err != nil {
		d.close()
		return nil, err
	}
	for id := 1; id <= cfg.Tenants; id++ {
		// Quota 0 (unlimited): the oracle wants every op admitted, and the
		// quota path has its own tests.
		if _, err := t.svc.Provision(uint32(id), cfg.LinesPerTenant, 0); err != nil {
			d.close()
			return nil, err
		}
	}
	// Hooks go in only after provisioning: the registry setup is the
	// fixture, the workload is the scenario, so boundary numbering starts
	// at the first workload write.
	inj, err := d.arm(cfg.DeviceConfig)
	if err != nil {
		return nil, err
	}
	t.sc = newScenario(t, inj, cfg.Seed, genOps(cfg.Seed, cfg.Writes, cfg.LinesPerTenant), cfg.Shards, cfg.Logf)
	t.sc.tenants = cfg.Tenants
	return t.sc, nil
}

// op executes the data op, preceded by the rotation kickoff at RotateAt
// and followed by a rotation sweep step while a rotation is in progress.
func (t *tenantStack) op(i int, k key, line *nvm.Line) (got nvm.Line, err error) {
	// ErrRotating is tolerated on the kickoff: a crash during the kickoff's
	// record persist may have landed the flag durably before the replay
	// re-runs this op.
	if t.cfg.RotateAt >= 0 && i == t.cfg.RotateAt && !t.rotating {
		if err := t.svc.Rotate(1); err != nil && !errors.Is(err, tenant.ErrRotating) {
			return got, fmt.Errorf("rotate kickoff: %w", err)
		}
		t.rotating = true
	}
	if line != nil {
		_, err = t.svc.Write(uint32(k.Stream), k.Addr, line)
	} else {
		got, err = t.read(k)
	}
	if err != nil || !t.rotating || t.rotationDone {
		return got, err
	}
	_, done, err := t.svc.RotateStep(1, 2)
	if err != nil && !errors.Is(err, tenant.ErrNotRotating) {
		return got, err
	}
	t.rotationDone = done
	return got, nil
}

func (t *tenantStack) read(k key) (nvm.Line, error) {
	got, _, err := t.svc.Read(uint32(k.Stream), k.Addr)
	return got, err
}

func (t *tenantStack) crash() error { return t.svc.Crash() }

func (t *tenantStack) recover() (*device.RecoveryReport, error) {
	t.sc.inj.Disarm()
	rep, err := t.svc.Recover()
	if err == nil && t.rotating {
		// The crash may have landed mid-rotation; the persisted epoch and
		// Rotating flag decide, not our volatile belief.
		st, err := t.svc.RotateStatus(1)
		if err != nil {
			t.sc.res.violate("RotateStatus after recovery: %v", err)
		} else {
			t.rotationDone = !st.Rotating
		}
	}
	return rep, err
}

// flush drives a rotation still in progress to completion (it must survive
// any crash and then complete, at epoch 2) before the durability barrier.
func (t *tenantStack) flush() error {
	t.finishRotation()
	if t.cfg.RotateAt >= 0 && t.cfg.RotateAt < t.cfg.Writes {
		st, err := t.svc.RotateStatus(1)
		switch {
		case err != nil:
			t.sc.res.violate("final RotateStatus: %v", err)
		case st.Rotating:
			t.sc.res.violate("rotation never completed (cursor %d of %d)", st.Cursor, st.DataLines)
		case st.Epoch != 2:
			t.sc.res.violate("tenant 1 epoch %d after one rotation, want 2", st.Epoch)
		}
	}
	return t.svc.Flush()
}

// verify is the device's own integrity sweep, then every tenant's MACs
// under its current epochs.
func (t *tenantStack) verify() error {
	errs := []error{t.svc.VerifyAll()}
	for id := 1; id <= t.cfg.Tenants; id++ {
		if err := t.svc.VerifyTenant(uint32(id)); err != nil {
			errs = append(errs, fmt.Errorf("VerifyTenant(%d): %w", id, err))
		}
	}
	return errors.Join(errs...)
}

func (t *tenantStack) extraChecks(phase string) {
	t.isolationCheck(phase)
	t.finishRotation()
}

// isolationCheck asserts that no tenant can open another tenant's lines:
// the cryptographic barrier (CrossCheck: foreign ciphertext must fail
// every admissible MAC) and the namespace barrier (out-of-extent
// addresses fail with a typed RangeError). Run at every crash point, it
// is the "no cross-tenant read ever succeeds" half of the oracle.
func (t *tenantStack) isolationCheck(phase string) {
	n := uint32(t.cfg.Tenants)
	for a := uint32(1); a <= n; a++ {
		v := a%n + 1
		for line := uint64(0); line < t.cfg.LinesPerTenant; line += 7 {
			if err := t.svc.CrossCheck(a, v, line*nvm.LineSize); err != nil {
				t.sc.res.violate("%s: %v", phase, err)
			}
		}
		var re *tenant.RangeError
		if _, _, err := t.svc.Read(a, t.cfg.LinesPerTenant*nvm.LineSize); !errors.As(err, &re) {
			t.sc.res.violate("%s: tenant %d out-of-extent read returned %v, want RangeError", phase, a, err)
		}
	}
}

// finishRotation drives tenant 1's rotation sweep to completion with
// injection disarmed (rotation must survive any crash and then complete).
func (t *tenantStack) finishRotation() {
	if !t.rotating || t.rotationDone {
		return
	}
	for {
		_, done, err := t.svc.RotateStep(1, 16)
		if err != nil {
			if errors.Is(err, tenant.ErrNotRotating) {
				break
			}
			t.sc.res.violate("rotation completion: %v", err)
			return
		}
		if done {
			break
		}
	}
	t.rotationDone = true
}
