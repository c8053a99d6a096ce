package chaos

import (
	"testing"

	"soteria/internal/memctrl"
)

// TestDeviceCrashSweepQuick is the sharded-device analogue of the
// single-controller sweep tests: crash at every stride-th device-wide
// boundary, recover, verify — zero violations expected.
func TestDeviceCrashSweepQuick(t *testing.T) {
	for _, shards := range []int{1, 4} {
		res, err := DeviceCrashSweep(DeviceConfig{
			Seed:    1,
			Writes:  40,
			Shards:  shards,
			Mode:    memctrl.ModeSRC,
			CrashAt: -1,
		}, 5, t.Logf)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if res.Boundaries == 0 {
			t.Fatalf("shards=%d: probe saw no boundaries", shards)
		}
		for _, f := range res.Failures {
			t.Errorf("shards=%d: %s: %v", shards, f.Repro, f.Violations)
		}
	}
}

// TestDeviceRunDeterministic pins the closed-loop determinism contract:
// the same DeviceConfig crashes at the same boundary on the same shard
// and observes the same counts, every time.
func TestDeviceRunDeterministic(t *testing.T) {
	cfg := DeviceConfig{Seed: 7, Writes: 50, Shards: 4, Mode: memctrl.ModeSAC, CrashAt: 20}
	first, err := DeviceRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Crashed {
		t.Fatalf("crash-at %d never fired (%d boundaries)", cfg.CrashAt, first.Boundaries)
	}
	if len(first.Violations) > 0 {
		t.Fatalf("violations: %v", first.Violations)
	}
	for i := 0; i < 2; i++ {
		again, err := DeviceRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again.CrashBoundary != first.CrashBoundary || again.CrashShard != first.CrashShard ||
			again.Boundaries != first.Boundaries {
			t.Fatalf("run %d diverged: crash %d/shard %d/%d boundaries, want %d/%d/%d",
				i, again.CrashBoundary, again.CrashShard, again.Boundaries,
				first.CrashBoundary, first.CrashShard, first.Boundaries)
		}
	}
}

// TestDeviceReproSelfContained: repro lines must carry the full flag set —
// in particular the strategy, which used to be dropped when a failure was
// found via -schemes.
func TestDeviceReproSelfContained(t *testing.T) {
	got := DeviceRepro(DeviceConfig{Seed: 9, Writes: 80, Shards: 8, Mode: memctrl.ModeSRC, Strategy: "triad-nvm", CrashAt: 17})
	want := "go run ./cmd/chaos -device -shards 8 -seed 9 -writes 80 -mode src -strategy triad-nvm -crash-at 17"
	if got != want {
		t.Fatalf("repro line:\n got %q\nwant %q", got, want)
	}
	// Defaulted fields are named explicitly so the line replays the same
	// scenario no matter what the defaults become later.
	got = DeviceRepro(DeviceConfig{Seed: 1, Writes: 60, Mode: memctrl.ModeSAC, CrashAt: -1})
	want = "go run ./cmd/chaos -device -shards 4 -seed 1 -writes 60 -mode sac -strategy soteria"
	if got != want {
		t.Fatalf("defaulted repro line:\n got %q\nwant %q", got, want)
	}
}
