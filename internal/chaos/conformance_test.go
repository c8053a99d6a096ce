package chaos

import (
	"testing"

	"soteria/internal/memctrl"
)

// TestConformanceAllStrategies is the shared contract: every registered
// metadata-persistence strategy survives the identical crash-point sweep,
// nested crash-during-recovery sweep, and fault campaign, judged by the
// same acknowledged-write oracle. A new strategy registered in memctrl is
// pulled into this table automatically.
func TestConformanceAllStrategies(t *testing.T) {
	cfg := Config{Seed: 11, Writes: 60, Mode: memctrl.ModeSRC, FaultRate: 0.01}
	stride, trials := 4, 3
	if testing.Short() {
		cfg.Writes, stride, trials = 30, 8, 1
	}
	for _, strategy := range memctrl.Strategies() {
		t.Run(strategy, func(t *testing.T) {
			cfg := cfg
			cfg.Strategy = strategy
			res, err := Conformance(cfg, stride, trials)
			if err != nil {
				t.Fatal(err)
			}
			if res.CrashSweep.Boundaries == 0 || res.Runs() < 3 {
				t.Fatalf("suite too small: %d runs, %d boundaries", res.Runs(), res.CrashSweep.Boundaries)
			}
			if res.NestedSweep == nil {
				t.Fatal("nested sweep did not run")
			}
			for _, f := range res.Failures() {
				t.Errorf("conformance failure: %s: %v", f.Repro, f.Violations)
			}
		})
	}
}

// TestConformanceSweepsCoverSACMode spot-checks that the suite is not
// SRC-only: the clone-policy variant passes under a second mode too.
func TestConformanceSweepsCoverSACMode(t *testing.T) {
	for _, strategy := range []string{"soteria", "triad-nvm"} {
		res, err := Conformance(Config{Seed: 13, Writes: 30, Mode: memctrl.ModeSAC, Strategy: strategy}, 6, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Failures() {
			t.Errorf("%s under SAC: %s: %v", strategy, f.Repro, f.Violations)
		}
	}
}

// TestSoteriaOnlyKnobsRejected pins the validation: shadow-entry faults and
// the half-repair kill switch are meaningless outside the Soteria table and
// must be refused, not silently ignored.
func TestSoteriaOnlyKnobsRejected(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, Writes: 10, Mode: memctrl.ModeSRC, Strategy: "triad-nvm", CrashAt: -1, NestedCrashAt: -1, ShadowFaults: 1},
		{Seed: 1, Writes: 10, Mode: memctrl.ModeSRC, Strategy: "anubis-shadow", CrashAt: -1, NestedCrashAt: -1, BreakHalfRepair: true},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run accepted soteria-only knobs for strategy %q", cfg.Strategy)
		}
	}
}

// TestReproNamesStrategy pins the repro contract: every one-line repro
// names the strategy it ran under, so a cross-scheme sweep failure is
// unambiguous.
func TestReproNamesStrategy(t *testing.T) {
	if got := (Config{Seed: 5, Writes: 20, Mode: memctrl.ModeSRC, Strategy: "triad-nvm", CrashAt: 3}).Repro(); !contains(got, "-strategy triad-nvm") {
		t.Errorf("repro %q does not name the strategy", got)
	}
	if got := (Config{Seed: 5, Writes: 20, Mode: memctrl.ModeSRC, CrashAt: -1}).Repro(); !contains(got, "-strategy soteria") {
		t.Errorf("repro %q does not name the default strategy", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
