package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"soteria/internal/chaos"
	"soteria/internal/memctrl"
)

// parse feeds args through the command's own flag parser.
func parse(args ...string) (*invocation, error) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseFlags(fs, args)
}

// parseRepro parses a printed repro line, which must ask for one single
// run.
func parseRepro(t *testing.T, line string) chaos.Target {
	t.Helper()
	args := strings.Fields(line)
	if len(args) < 3 || strings.Join(args[:3], " ") != "go run ./cmd/chaos" {
		t.Fatalf("repro line does not invoke cmd/chaos: %q", line)
	}
	inv, err := parse(args[3:]...)
	if err != nil {
		t.Fatalf("repro line does not parse: %v\nline: %s", err, line)
	}
	if inv.sweep || inv.nested || inv.schemes || inv.campaign != "" {
		t.Fatalf("repro line does not ask for a single run: %s", line)
	}
	return inv.target
}

// roundTrip checks that cfg's repro line parses back to a config with the
// same line (a fixpoint) that replays the byte-identical scenario, and
// returns the original run's result.
func roundTrip(t *testing.T, cfg chaos.Target) *chaos.Result {
	t.Helper()
	line := cfg.Repro()
	parsed := parseRepro(t, line)
	if got := parsed.Repro(); got != line {
		t.Fatalf("repro is not a fixpoint:\n got %q\nwant %q", got, line)
	}
	a, err := chaos.Run(cfg)
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	b, err := chaos.Run(parsed)
	if err != nil {
		t.Fatalf("parsed run: %v", err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("%s replays a different scenario\n--- original ---\n%s--- parsed ---\n%s", line, a.Summary(), b.Summary())
	}
	return a
}

// TestControllerReproRoundTrip: the controller line carries the nested
// crash, the fault schedule and both shadow-entry knobs.
func TestControllerReproRoundTrip(t *testing.T) {
	res := roundTrip(t, chaos.Config{Seed: 3, Writes: 60, Mode: memctrl.ModeSRC, CrashAt: 30, NestedCrashAt: 5,
		FaultRate: 0.05, ShadowFaults: 1, BreakHalfRepair: true})
	if !res.Crashed || !res.NestedCrashed || len(res.Faults) == 0 || len(res.ShadowFaultNotes) == 0 {
		t.Fatalf("scenario exercises too little: crashed %t, nested %t, %d faults, shadow faults %v",
			res.Crashed, res.NestedCrashed, len(res.Faults), res.ShadowFaultNotes)
	}
}

// TestGoldenControllerReprosAreSingleRuns: every bare-controller repro
// line pinned in the chaos sweep transcripts parses to one single run
// whose config prints that same line again, so pasting any of them
// replays the one run it names — a sabotaged probe with no crash point
// included, which would otherwise run the whole shadow campaign.
func TestGoldenControllerReprosAreSingleRuns(t *testing.T) {
	golden, err := os.ReadFile("../../internal/chaos/testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, l := range strings.Split(string(golden), "\n") {
		line, _, _ := strings.Cut(l, " | ")
		if !strings.HasPrefix(line, "go run ./cmd/chaos ") {
			continue
		}
		if f := " " + line + " "; strings.Contains(f, " -device ") || strings.Contains(f, " -tenants ") || strings.Contains(f, " -net ") {
			continue
		}
		n++
		cfg, ok := parseRepro(t, line).(chaos.Config)
		if !ok {
			t.Fatalf("controller repro parses to another stack: %s", line)
		}
		if got := cfg.Repro(); got != line {
			t.Errorf("golden repro is not a fixpoint:\n got %q\nwant %q", got, line)
		}
	}
	if n == 0 {
		t.Fatal("no controller repro lines in sweeps.golden")
	}
}

// TestDeviceReproRoundTrip: a pasted repro line must be self-contained.
// The strategy flag used to be dropped when the failure was found via
// -schemes, so a non-default strategy's failure replayed under the default
// strategy — here the full flag set must survive a parse round-trip AND
// replay the byte-identical scenario.
func TestDeviceReproRoundTrip(t *testing.T) {
	cfg := chaos.DeviceConfig{Seed: 11, Writes: 90, Shards: 4, Mode: memctrl.ModeSAC, Strategy: "triad-nvm-2", CrashAt: 33}
	if line := cfg.Repro(); !strings.Contains(line, "-strategy triad-nvm-2") {
		t.Fatalf("repro line omits the strategy: %s", line)
	}
	roundTrip(t, cfg)
}

// TestDeviceReproDefaultStrategy: even a defaulted strategy is spelled out,
// so the line keeps meaning the same scenario if the default ever changes.
func TestDeviceReproDefaultStrategy(t *testing.T) {
	line := chaos.DeviceConfig{Seed: 1, Writes: 60, Mode: memctrl.ModeSRC, CrashAt: -1}.Repro()
	if !strings.Contains(line, "-strategy "+memctrl.DefaultStrategy) {
		t.Fatalf("repro line omits the defaulted strategy: %s", line)
	}
	parsed, ok := parseRepro(t, line).(chaos.DeviceConfig)
	if !ok || parsed.Strategy != memctrl.DefaultStrategy || parsed.Shards != 4 {
		t.Fatalf("parsed defaults wrong: %#v", parsed)
	}
}

// TestTenantReproRoundTrip: the tenant line names the tenant count and
// the rotation point — also when rotation is off, since cmd/chaos rotates
// mid-workload when -rotate-at is absent.
func TestTenantReproRoundTrip(t *testing.T) {
	roundTrip(t, chaos.TenantConfig{DeviceConfig: chaos.DeviceConfig{Seed: 3, Writes: 50, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: 12},
		Tenants: 5, RotateAt: 9})
	off := chaos.TenantConfig{DeviceConfig: chaos.DeviceConfig{Seed: 1, Writes: 40, Mode: memctrl.ModeSRC, CrashAt: -1}, RotateAt: -1}
	if line := off.Repro(); !strings.Contains(line, "-rotate-at -1") {
		t.Fatalf("repro line omits the disabled rotation: %s", line)
	}
	roundTrip(t, off)
}

// TestNetReproRoundTrip: a -net repro line carries the strategy, the
// front end and the crash point, parses back to the same scenario, and
// replays it.
func TestNetReproRoundTrip(t *testing.T) {
	dev := chaos.DeviceConfig{Seed: 4, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, Strategy: "triad-nvm", CrashAt: 17}
	for _, tc := range []struct {
		cfg  chaos.NetConfig
		want []string
	}{
		{chaos.NetConfig{DeviceConfig: dev, Clients: 2, FaultName: "reset"}, []string{"-net-clients 2", "-net-fault reset"}},
		{chaos.NetConfig{DeviceConfig: dev, FaultName: "corrupt", Kills: 1, Pipeline: 4}, []string{"-pipeline 4", "-kills 1"}},
	} {
		line := tc.cfg.Repro()
		for _, want := range append(tc.want, "-net ", "-strategy triad-nvm", "-crash-at 17", "-writes 40") {
			if !strings.Contains(line, want) {
				t.Fatalf("repro line lacks %q: %s", want, line)
			}
		}
		if res := roundTrip(t, tc.cfg); !res.Crashed || len(res.Violations) > 0 {
			t.Fatalf("%s: crashed %t, violations %v", line, res.Crashed, res.Violations)
		}
	}
}

// TestFlagsRefused: every stack honours its own flags — each combination
// CI runs among them — and refuses, in one message, every flag it cannot
// honour instead of ignoring it.
func TestFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args    string
		refused string // substring of the error, "" for none
	}{
		// The controller.
		{"-seed 1 -quick -sweep", ""},
		{"-seed 1 -quick -nested", ""},
		{"-seed 1 -quick -nested -crash-at 10", ""},
		{"-seed 1 -campaign shadow -trials 40", ""},
		{"-seed 1 -campaign fault -trials 40", ""},
		{"-seed 1 -quick -schemes", ""},
		{"-seed 1 -schemes -fault-rate 0.02 -mode sac", ""},
		{"-seed 7 -quick -break-half-repair", ""},
		{"-seed 7 -campaign shadow -break-half-repair", ""},
		{"-seed 3 -writes 60 -crash-at 30 -crash-at2 5 -fault-rate 0.05 -shadow-faults 1 -break-half-repair", ""},
		{"-seed 14 -writes 200 -mode baseline -strategy triad-nvm-2 -fault-rate 0.01", ""},
		{"-quick -shards 8 -tenant-count 5", "; drop -tenant-count -shards"},
		{"-quick -pipeline 4 -kills 1", "; drop -pipeline -kills"},
		{"-quick -schemes -sweep -crash-at 3 -strategy triad-nvm -break-half-repair", "-schemes is a self-contained suite; drop -sweep -crash-at -strategy -break-half-repair"},
		{"-campaign fault -crash-at 3 -shadow-faults 1", "; drop -crash-at -shadow-faults"},
		{"-campaign shadow -nested -fault-rate 0.1", "; drop -nested -fault-rate"},
		{"-quick -break-half-repair -sweep", "; drop -sweep"},
		{"-quick -nested -crash-at2 3", "; drop -crash-at2"},
		{"-quick -sweep -crash-at 4 -shadow-faults 1", "; drop -crash-at -shadow-faults"},
		{"-campaign bogus", "unknown -campaign"},
		// The sharded device.
		{"-device -shards 4 -seed 1 -quick -sweep", ""},
		{"-device -shards 4 -seed 5 -writes 120 -crash-at 50", ""},
		{"-device -schemes -quick", "-device supports single runs and -sweep only; drop -schemes"},
		{"-device -tenant-count 5 -kills 1 -net-fault corrupt", "; drop -tenant-count -net-fault -kills"},
		{"-device -fault-rate 0.1 -nested", "; drop -nested -fault-rate"},
		// The tenant service.
		{"-tenants -seed 1 -quick -sweep", ""},
		{"-tenants -schemes -seed 1 -quick -stride 10", ""},
		{"-tenants -seed 1 -quick -crash-at 40 -tenant-count 5 -rotate-at -1", ""},
		{"-tenants -kills 2 -net-fault corrupt", "-tenants supports single runs, -sweep and -schemes only; drop -net-fault -kills"},
		{"-tenants -schemes -sweep -strategy soteria", "; drop -sweep -strategy"},
		{"-tenants -device -break-half-repair", "; drop -break-half-repair -device"},
		// The device over TCP.
		{"-net -sweep -seed 1 -quick", ""},
		{"-net -sweep -seed 1 -quick -pipeline 4", ""},
		{"-net -seed 1 -quick -pipeline 4 -net-fault combined -kills 1 -crash-at 25", ""},
		{"-net -strategy triad-nvm -crash-at 3 -writes 40", ""},
		{"-net -pipeline 4 -net-clients 1", ""},
		{"-net -pipeline 4 -net-clients 2", "-net-clients 2"},
		{"-net -schemes -tenants", "-net supports single runs and -sweep only; drop -tenants -schemes"},
		{"-net -fault-rate 0.1 -shadow-faults 1 -break-half-repair", "; drop -fault-rate -shadow-faults -break-half-repair"},
		{"-net -campaign fault -nested -crash-at2 1 -device", "; drop -campaign -nested -crash-at2 -device"},
		{"-net -tenant-count 2 -rotate-at 3", "; drop -tenant-count -rotate-at"},
	} {
		_, err := parse(strings.Fields(tc.args)...)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%s refused: %v", tc.args, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%s: got %v, want a refusal naming %q", tc.args, err, tc.refused)
		}
	}
}
