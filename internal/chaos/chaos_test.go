package chaos

import (
	"strings"
	"testing"

	"soteria/internal/itree"
	"soteria/internal/memctrl"
)

// probeBoundaries runs the scenario without a crash to learn its boundary
// count, the way the sweeps do.
func probeBoundaries(t *testing.T, cfg Config) int {
	t.Helper()
	cfg.CrashAt, cfg.NestedCrashAt = -1, -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("probe violations: %v", res.Violations)
	}
	if res.Boundaries == 0 {
		t.Fatal("probe saw no boundaries")
	}
	return res.Boundaries
}

func TestCleanRunNoViolations(t *testing.T) {
	for _, mode := range []memctrl.Mode{memctrl.ModeNonSecure, memctrl.ModeBaseline, memctrl.ModeSRC, memctrl.ModeSAC} {
		res, err := Run(Config{Seed: 1, Writes: 40, Mode: mode, CrashAt: -1, NestedCrashAt: -1})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(res.Violations) > 0 {
			t.Errorf("%v: violations on a clean run: %v", mode, res.Violations)
		}
		if res.Crashed {
			t.Errorf("%v: crashed without a crash point", mode)
		}
	}
}

func TestCrashSweepFindsNoViolations(t *testing.T) {
	res, err := CrashSweep(Config{Seed: 2, Writes: 30, Mode: memctrl.ModeSRC, CrashAt: -1, NestedCrashAt: -1}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Boundaries == 0 || res.Runs < 3 {
		t.Fatalf("sweep too small: %d runs, %d boundaries", res.Runs, res.Boundaries)
	}
	for _, f := range res.Failures {
		t.Errorf("sweep failure: %s: %v", f.Repro, f.Violations)
	}
}

func TestNestedCrashRecovers(t *testing.T) {
	base := Config{Seed: 3, Writes: 40, Mode: memctrl.ModeSRC, NestedCrashAt: -1}
	base.CrashAt = probeBoundaries(t, base) / 2
	for _, k := range []int{0, 3, 9} {
		cfg := base
		cfg.NestedCrashAt = k
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("nested at %d: %v", k, err)
		}
		if !res.Crashed {
			t.Fatalf("nested at %d: first crash never fired", k)
		}
		if len(res.Violations) > 0 {
			t.Errorf("nested at %d: violations: %v\nrepro: %s", k, res.Violations, cfg.Repro())
		}
	}
}

func TestShadowHalfFaultAbsorbed(t *testing.T) {
	cfg := Config{Seed: 4, Writes: 40, Mode: memctrl.ModeSRC, NestedCrashAt: -1, ShadowFaults: 2}
	cfg.CrashAt = probeBoundaries(t, Config{Seed: 4, Writes: 40, Mode: memctrl.ModeSRC}) / 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("half faults not absorbed: %v\nrepro: %s", res.Violations, cfg.Repro())
	}
	if res.Report == nil || res.Report.Shards[0].HalfRepairs == 0 {
		t.Fatalf("expected half repairs to fire (faults %v)", res.ShadowFaultNotes)
	}
}

func TestBrokenHalfRepairIsCaught(t *testing.T) {
	cfg := Config{Seed: 4, Writes: 40, Mode: memctrl.ModeSRC, NestedCrashAt: -1, ShadowFaults: 2, BreakHalfRepair: true}
	cfg.CrashAt = probeBoundaries(t, Config{Seed: 4, Writes: 40, Mode: memctrl.ModeSRC}) / 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("sabotaged recovery produced no violations — the harness is blind")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, Writes: 40, Mode: memctrl.ModeSAC, NestedCrashAt: -1, FaultRate: 0.02}
	cfg.CrashAt = 20
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Boundaries != b.Boundaries || a.CrashBoundary != b.CrashBoundary ||
		len(a.Faults) != len(b.Faults) || len(a.Violations) != len(b.Violations) ||
		a.OpErrors != b.OpErrors {
		t.Fatalf("replay diverged:\n  a: %+v\n  b: %+v", a, b)
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d diverged: %v vs %v", i, a.Faults[i], b.Faults[i])
		}
	}
}

func TestModeFlagRoundTrip(t *testing.T) {
	for _, m := range []memctrl.Mode{memctrl.ModeNonSecure, memctrl.ModeBaseline, memctrl.ModeSRC, memctrl.ModeSAC} {
		got, err := memctrl.ParseMode(ModeFlag(m))
		if err != nil || got != m {
			t.Errorf("round trip %v -> %q -> %v, %v", m, ModeFlag(m), got, err)
		}
	}
	aliases := map[string]memctrl.Mode{
		"non-secure": memctrl.ModeNonSecure, "NS": memctrl.ModeNonSecure,
		"secure-baseline": memctrl.ModeBaseline, "Baseline": memctrl.ModeBaseline,
		"SRC": memctrl.ModeSRC, "Sac": memctrl.ModeSAC,
	}
	for s, want := range aliases {
		if got, err := memctrl.ParseMode(s); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := memctrl.ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted a bogus mode")
	}
}

func TestReproIncludesSchedule(t *testing.T) {
	cfg := Config{Seed: 9, Writes: 50, Mode: memctrl.ModeSAC, CrashAt: 7, NestedCrashAt: 3,
		FaultRate: 0.5, ShadowFaults: 1, BreakHalfRepair: true}
	r := cfg.Repro()
	for _, want := range []string{"-seed 9", "-writes 50", "-mode sac", "-crash-at 7",
		"-crash-at2 3", "-fault-rate 0.5", "-shadow-faults 1", "-break-half-repair"} {
		if !strings.Contains(r, want) {
			t.Errorf("repro %q missing %q", r, want)
		}
	}
}

// Every line the controller touches is NVM, so seeded fault runs on a
// cloning layout must reach the clone regions too.
func TestFaultsReachCloneRegions(t *testing.T) {
	ctrl, err := newCtrl(Config{Mode: memctrl.ModeSRC})
	if err != nil {
		t.Fatal(err)
	}
	lay := ctrl.Layout()
	total, clones := 0, 0
	for seed := int64(1); seed <= 10 && clones == 0; seed++ {
		res, err := Run(Config{Seed: seed, Writes: 200, Mode: memctrl.ModeSRC, CrashAt: -1, NestedCrashAt: -1, FaultRate: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Faults {
			total++
			if lay.Locate(f.Addr).Kind == itree.RegionClone {
				clones++
			}
		}
	}
	t.Logf("%d of %d faults on a clone", clones, total)
	if clones == 0 {
		t.Fatalf("none of %d faults landed on a clone region", total)
	}
}
