package chaos

import (
	"testing"

	"soteria/internal/memctrl"
)

// FuzzStrategyCrashRecover fuzzes the full crash/recover scenario across
// every registered strategy: the fuzzer picks the workload seed, its
// length, the crash boundary and the scheme, and the scenario oracle
// asserts the contract — recovery never yields a verified-but-corrupt
// block (silent corruption), never panics with anything but the simulated
// power loss, and its report accounting stays consistent.
func FuzzStrategyCrashRecover(f *testing.F) {
	for i := range memctrl.Strategies() {
		f.Add(int64(7+i), 40, 13, byte(i))
	}
	f.Add(int64(99), 80, 0, byte(1))    // crash at the very first boundary
	f.Add(int64(5), 10, 1<<20, byte(2)) // crash point past the workload: clean run
	f.Fuzz(func(t *testing.T, seed int64, writes int, crashAt int, stratIdx byte) {
		strategies := memctrl.Strategies()
		strategy := strategies[int(stratIdx)%len(strategies)]
		if writes < 5 {
			writes = 5
		}
		if writes > 100 {
			writes = 100
		}
		if crashAt < 0 {
			crashAt = ^crashAt // flip, not negate: math.MinInt-safe
		}
		// Wrap most crash points into firing range, but keep a tail of
		// never-firing (clean) runs in the space.
		crashAt %= writes * 8
		cfg := Config{
			Seed:     seed,
			Writes:   writes,
			Mode:     memctrl.ModeSRC,
			Strategy: strategy,
			CrashAt:  crashAt, NestedCrashAt: -1,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		for _, v := range res.Violations {
			t.Errorf("%s: %s: %s", strategy, cfg.Repro(), v)
		}
	})
}
