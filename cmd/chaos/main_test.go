package main

import (
	"flag"
	"strings"
	"testing"

	"soteria/internal/chaos"
	"soteria/internal/memctrl"
)

// parseDeviceRepro feeds a printed repro line back through a flag set
// mirroring the one main defines (same names, same defaults). If main's
// flags and this mirror drift apart, the round-trip below fails — which is
// the point: a repro line must stay parseable by this binary forever.
func parseDeviceRepro(t *testing.T, line string) chaos.DeviceConfig {
	t.Helper()
	args := strings.Fields(line)
	if len(args) < 4 || args[0] != "go" || args[1] != "run" || args[2] != "./cmd/chaos" {
		t.Fatalf("repro line does not invoke cmd/chaos: %q", line)
	}
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	writes := fs.Int("writes", 200, "")
	modeName := fs.String("mode", "src", "")
	strategyName := fs.String("strategy", "", "")
	crashAt := fs.Int("crash-at", -1, "")
	deviceRun := fs.Bool("device", false, "")
	shards := fs.Int("shards", 4, "")
	if err := fs.Parse(args[3:]); err != nil {
		t.Fatalf("repro line does not parse: %v\nline: %s", err, line)
	}
	if !*deviceRun {
		t.Fatalf("repro line lost -device: %s", line)
	}
	mode, err := chaos.ParseMode(*modeName)
	if err != nil {
		t.Fatalf("repro line mode: %v", err)
	}
	return chaos.DeviceConfig{
		Seed:     *seed,
		Writes:   *writes,
		Shards:   *shards,
		Mode:     mode,
		Strategy: *strategyName,
		CrashAt:  *crashAt,
	}
}

// TestDeviceReproRoundTrip: a pasted repro line must be self-contained.
// The strategy flag used to be dropped when the failure was found via
// -schemes, so a non-default strategy's failure replayed under the default
// strategy — here the full flag set must survive a parse round-trip AND
// replay the byte-identical scenario.
func TestDeviceReproRoundTrip(t *testing.T) {
	orig := chaos.DeviceConfig{Seed: 11, Writes: 90, Shards: 4, Mode: memctrl.ModeSAC, Strategy: "triad-nvm-2", CrashAt: 33}
	line := chaos.DeviceRepro(orig)
	if !strings.Contains(line, "-strategy triad-nvm-2") {
		t.Fatalf("repro line omits the strategy: %s", line)
	}
	parsed := parseDeviceRepro(t, line)
	if got := chaos.DeviceRepro(parsed); got != line {
		t.Fatalf("repro is not a fixpoint:\n got %q\nwant %q", got, line)
	}

	origRes, err := chaos.DeviceRun(orig)
	if err != nil {
		t.Fatalf("original run: %v", err)
	}
	parsedRes, err := chaos.DeviceRun(parsed)
	if err != nil {
		t.Fatalf("parsed run: %v", err)
	}
	if origRes.Summary() != parsedRes.Summary() {
		t.Fatalf("parsed repro replays a different scenario\n--- original ---\n%s--- parsed ---\n%s",
			origRes.Summary(), parsedRes.Summary())
	}
}

// TestDeviceReproDefaultStrategy: even a defaulted strategy is spelled out,
// so the line keeps meaning the same scenario if the default ever changes.
func TestDeviceReproDefaultStrategy(t *testing.T) {
	line := chaos.DeviceRepro(chaos.DeviceConfig{Seed: 1, Writes: 60, Mode: memctrl.ModeSRC, CrashAt: -1})
	if !strings.Contains(line, "-strategy "+memctrl.DefaultStrategy) {
		t.Fatalf("repro line omits the defaulted strategy: %s", line)
	}
	parsed := parseDeviceRepro(t, line)
	if parsed.Strategy != memctrl.DefaultStrategy || parsed.Shards != 4 {
		t.Fatalf("parsed defaults wrong: %+v", parsed)
	}
}

// TestNetReproRoundTrip: a -net repro line carries the strategy and the
// crash point, parses back to the same scenario, and replays it.
func TestNetReproRoundTrip(t *testing.T) {
	orig := chaos.NetConfig{
		DeviceConfig: chaos.DeviceConfig{Seed: 4, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, Strategy: "triad-nvm", CrashAt: 17},
		FaultName:    "corrupt", Kills: 1, Pipeline: 4,
	}
	line := chaos.NetRepro(orig)
	for _, want := range []string{"-net ", "-strategy triad-nvm", "-crash-at 17", "-writes 40", "-pipeline 4", "-kills 1"} {
		if !strings.Contains(line, want) {
			t.Fatalf("repro line lacks %q: %s", want, line)
		}
	}
	args := strings.Fields(line)
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "")
	writes := fs.Int("writes", 200, "")
	modeName := fs.String("mode", "src", "")
	strategyName := fs.String("strategy", "", "")
	crashAt := fs.Int("crash-at", -1, "")
	shards := fs.Int("shards", 4, "")
	netRun := fs.Bool("net", false, "")
	netFault := fs.String("net-fault", "clean", "")
	netClients := fs.Int("net-clients", 3, "")
	pipeline := fs.Int("pipeline", 0, "")
	batch := fs.Int("net-batch", 0, "")
	kills := fs.Int("kills", 0, "")
	if err := fs.Parse(args[3:]); err != nil || !*netRun {
		t.Fatalf("repro line does not parse as a -net run (%v): %s", err, line)
	}
	mode, err := chaos.ParseMode(*modeName)
	if err != nil {
		t.Fatal(err)
	}
	parsed := chaos.NetConfig{
		DeviceConfig: chaos.DeviceConfig{Seed: *seed, Writes: *writes, Shards: *shards, Mode: mode, Strategy: *strategyName, CrashAt: *crashAt},
		Clients:      *netClients, Kills: *kills, FaultName: *netFault, Pipeline: *pipeline, Batch: *batch,
	}
	if got := chaos.NetRepro(parsed); got != line {
		t.Fatalf("repro is not a fixpoint:\n got %q\nwant %q", got, line)
	}
	a, err := chaos.NetRun(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.NetRun(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Crashed || a.Summary() != b.Summary() || len(a.Violations) > 0 {
		t.Fatalf("parsed repro replays a different or failing scenario\n--- original ---\n%s--- parsed ---\n%s", a.Summary(), b.Summary())
	}
}

// TestNetFlagsRefused: -net honours -strategy and -crash-at, and refuses
// every flag it cannot honour with one message instead of ignoring it.
func TestNetFlagsRefused(t *testing.T) {
	cases := []struct {
		set      []string
		pipeline int
		clients  int
		refused  string // substring of the error, "" for none
	}{
		{[]string{"strategy", "crash-at", "sweep", "writes"}, 0, 3, ""},
		{[]string{"pipeline"}, 4, 3, ""}, // the default client count does not conflict
		{[]string{"pipeline", "net-clients"}, 4, 1, ""},
		{[]string{"pipeline", "net-clients"}, 4, 2, "-net-clients 2"},
		{[]string{"tenants"}, 0, 3, "-tenants"},
		{[]string{"schemes", "tenants"}, 0, 3, "-tenants -schemes"},
		{[]string{"fault-rate", "shadow-faults", "break-half-repair"}, 0, 3, "-fault-rate -shadow-faults -break-half-repair"},
		{[]string{"campaign", "nested", "crash-at2", "device"}, 0, 3, "-campaign -nested -crash-at2 -device"},
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, f := range tc.set {
			set[f] = true
		}
		err := netFlagsErr(set, tc.pipeline, tc.clients)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%v refused: %v", tc.set, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused)):
			t.Errorf("%v: got %v, want a refusal naming %q", tc.set, err, tc.refused)
		}
	}
}
