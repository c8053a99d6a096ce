package chaos

import (
	"strings"
	"testing"

	"soteria/internal/memctrl"
)

// TestTenantCrashSweepQuick crashes at every stride-th device boundary of
// a multi-tenant workload with an online rotation armed mid-way: every
// tenant's acked writes survive, no cross-tenant read ever succeeds, and
// the rotation completes — zero violations expected.
func TestTenantCrashSweepQuick(t *testing.T) {
	res, err := CrashSweep(TenantConfig{DeviceConfig: DeviceConfig{Seed: 1, Writes: 30, Shards: 4, Mode: memctrl.ModeSAC, CrashAt: -1}, Tenants: 3, RotateAt: 10}, 25, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boundaries == 0 {
		t.Fatal("probe saw no boundaries")
	}
	for _, f := range res.Failures {
		t.Errorf("%s: %v", f.Repro, f.Violations)
	}
}

// TestTenantRunDeterministic pins determinism for the tenant leg: the
// same TenantConfig crashes at the same boundary on the same shard with
// the same counts, every time.
func TestTenantRunDeterministic(t *testing.T) {
	cfg := TenantConfig{DeviceConfig: DeviceConfig{Seed: 7, Writes: 40, Shards: 4, Mode: memctrl.ModeSAC, CrashAt: 60}, Tenants: 3, RotateAt: 8}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Crashed {
		t.Fatalf("crash-at %d never fired (%d boundaries)", cfg.CrashAt, first.Boundaries)
	}
	if len(first.Violations) > 0 {
		t.Fatalf("violations: %v", first.Violations)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.CrashBoundary != first.CrashBoundary || again.CrashShard != first.CrashShard ||
		again.Boundaries != first.Boundaries {
		t.Fatalf("replay diverged: crash %d/shard %d/%d boundaries, want %d/%d/%d",
			again.CrashBoundary, again.CrashShard, again.Boundaries,
			first.CrashBoundary, first.CrashShard, first.Boundaries)
	}
}

// TestTenantConformanceAllStrategies runs a coarse tenant crash sweep —
// rotation window armed — for every registered metadata-persistence
// strategy.
func TestTenantConformanceAllStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-strategy sweep in -short mode")
	}
	for _, strategy := range memctrl.Strategies() {
		cfg := TenantConfig{DeviceConfig: DeviceConfig{Seed: 2, Writes: 20, Shards: 2, Mode: memctrl.ModeSAC, Strategy: strategy, CrashAt: -1},
			Tenants: 2, RotateAt: 6}
		res, err := CrashSweep(cfg, 40, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Failures {
			t.Errorf("%s: %s: %v", strategy, f.Repro, f.Violations)
		}
	}
}

// TestTenantReproSelfContained: the repro line names every
// scenario-shaping knob, including the tenant count and rotation point.
func TestTenantReproSelfContained(t *testing.T) {
	repro := TenantConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 50, Mode: memctrl.ModeSRC, CrashAt: 12}, Tenants: 5, RotateAt: 9}.Repro()
	for _, want := range []string{"-tenants", "-tenant-count 5", "-seed 3",
		"-writes 50", "-mode src", "-strategy " + memctrl.DefaultStrategy,
		"-rotate-at 9", "-crash-at 12"} {
		if !strings.Contains(repro, want) {
			t.Errorf("repro %q missing %q", repro, want)
		}
	}
}
