package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"soteria/internal/memctrl"
)

var update = flag.Bool("update", false, "rewrite the golden telemetry snapshot")

// goldenParams is the fixed trace behind the golden snapshot: a 1k-access
// hashmap run in all three secure modes at Table 3's cache sizes.
// Everything that could move the numbers is pinned.
func goldenParams(workers int) PerfParams {
	return PerfParams{
		Workloads:        []string{"hashmap"},
		Modes:            []memctrl.Mode{memctrl.ModeBaseline, memctrl.ModeSRC, memctrl.ModeSAC},
		Ops:              1000,
		Warmup:           100,
		Footprint:        4 << 20,
		Seed:             3,
		Parallelism:      workers,
		CollectTelemetry: true,
	}
}

// TestGoldenTelemetrySnapshot locks the merged telemetry JSON of a fixed
// trace byte for byte: across repeated runs, across worker counts, and
// across commits (via the checked-in golden file). Any counter that
// becomes nondeterministic — a map-ordered merge, a wall-clock-derived
// value, a data race — breaks this test. Refresh intentionally changed
// numbers with `go test ./internal/experiments -run Golden -update`.
func TestGoldenTelemetrySnapshot(t *testing.T) {
	golden := filepath.Join("testdata", "golden_telemetry.json")

	var first []byte
	for _, workers := range []int{1, 2, 4} {
		res, err := RunPerf(goldenParams(workers))
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.Telemetry.MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if first == nil {
			first = data
			continue
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("telemetry snapshot depends on worker count (workers=%d):\n%s\n--- workers=1 ---\n%s",
				workers, data, first)
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("telemetry snapshot diverged from %s (rerun with -update if intended)\ngot %d bytes, want %d",
			golden, len(first), len(want))
	}
}
