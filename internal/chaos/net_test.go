package chaos

import (
	"strings"
	"testing"

	"soteria/internal/memctrl"
)

func TestNetRunCleanSchedule(t *testing.T) {
	cfg := NetConfig{DeviceConfig: DeviceConfig{Seed: 11, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: -1}, Clients: 2}
	sc, n, err := newNetScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	if len(sc.ops) != 40 {
		t.Fatalf("workload has %d ops, want Writes = 40 in total", len(sc.ops))
	}
	res := sc.run()
	if len(res.Violations) > 0 || res.Crashed {
		t.Fatalf("clean run: crashed %t, violations %v", res.Crashed, res.Violations)
	}
	if n.acked == 0 || n.applied.Value() != n.acked {
		t.Fatalf("applied %d, acked %d", n.applied.Value(), n.acked)
	}
}

func TestNetRunCombinedWithKill(t *testing.T) {
	cfg := NetConfig{DeviceConfig: DeviceConfig{Seed: 5, Writes: 50, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: -1}, Clients: 3, Kills: 1, FaultName: "combined"}
	sc, n, err := newNetScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	res := sc.run()
	if len(res.Violations) > 0 {
		t.Fatalf("combined+kill run violated: %v\nrepro: %s", res.Violations, NetRepro(cfg))
	}
	if n.sup.Kills() != 1 {
		t.Fatalf("kills = %d, want 1", n.sup.Kills())
	}
}

// TestNetRunPipelinedCombinedWithKill drives the windowed batching front
// end through the combined fault schedule, a kill/restart cycle and a
// power cut: the runner's oracle and the exactly-once check must hold with
// go-back-N recovery in play.
func TestNetRunPipelinedCombinedWithKill(t *testing.T) {
	cfg := NetConfig{DeviceConfig: DeviceConfig{Seed: 5, Writes: 50, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: 30}, Kills: 1, FaultName: "combined", Pipeline: 4}
	res, err := NetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 || !res.Crashed {
		t.Fatalf("pipelined combined+kill run: crashed %t, violations %v\nrepro: %s", res.Crashed, res.Violations, NetRepro(cfg))
	}
	if repro := NetRepro(cfg); !strings.Contains(repro, "-pipeline 4 -net-batch 8") || !strings.Contains(repro, "-crash-at 30") {
		t.Fatalf("repro missing the pipeline or crash point: %s", repro)
	}
}

// TestNetReportDeterministic: a net run that crashes is a seeded scenario
// like any other — two runs of the same config render the same transcript.
func TestNetReportDeterministic(t *testing.T) {
	dev := DeviceConfig{Seed: 9, Writes: 30, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: 12}
	for _, cfg := range []NetConfig{
		{DeviceConfig: dev, Clients: 2},
		{DeviceConfig: dev, Pipeline: 4, FaultName: "corrupt", Kills: 1},
	} {
		run := func() string {
			res, err := NetRun(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Crashed {
				t.Fatalf("%s never crashed (%d boundaries)", NetRepro(cfg), res.Boundaries)
			}
			return renderDeviceResult(NetRepro(cfg), nil, res)
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("same config rendered different transcripts:\n%s\nvs\n%s", a, b)
		}
	}
}

func TestNetFaultScheduleNames(t *testing.T) {
	for _, name := range []string{"clean", "latency", "throttle", "corrupt", "reset", "truncate", "partition", "combined"} {
		if len(netFaults[name]) == 0 {
			t.Errorf("schedule %q has no phases", name)
		}
	}
	if _, err := NetRun(NetConfig{DeviceConfig: DeviceConfig{Writes: 4, CrashAt: -1}, FaultName: "bogus"}); err == nil {
		t.Error("bogus schedule accepted")
	}
}

// TestNetRunHonoursStrategy: the served device runs the configured
// metadata-persistence scheme, so its boundary count is that scheme's.
func TestNetRunHonoursStrategy(t *testing.T) {
	boundaries := func(cfg NetConfig) int {
		res, err := NetRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Boundaries
	}
	for _, strategy := range []string{"soteria", "triad-nvm"} {
		cfg := NetConfig{DeviceConfig: DeviceConfig{Seed: 1, Writes: 60, Shards: 1, Mode: memctrl.ModeSRC, CrashAt: -1, Strategy: strategy}, Clients: 1}
		dev := DeviceConfig{Seed: 1, Writes: 60, Shards: 1, Mode: memctrl.ModeSRC, CrashAt: -1, Strategy: strategy}
		dres, err := DeviceRun(dev)
		if err != nil {
			t.Fatal(err)
		}
		if got := boundaries(cfg); got != dres.Boundaries {
			t.Errorf("%s: net run crossed %d boundaries, the device leg %d", strategy, got, dres.Boundaries)
		}
	}
}

// settledAtCrash records which ops had settled when the workload loop
// ended, before replay settles the rest.
type settledAtCrash struct {
	stack
	sc      *scenario
	settled []bool
}

func (s *settledAtCrash) wait() {
	s.stack.wait()
	if s.settled == nil {
		s.settled = append([]bool(nil), s.sc.settled...)
	}
}

// TestPipeCutRule pins the commit rule for a pipelined power loss. Seed 1,
// crash-at 6: the batch holding ops 3..10 executes as shard groups in order
// of first op — shard 0 [3 8 10], shard 1 [4 7], shard 3 [5 6], shard 2 [9]
// — and power is lost inside write 7. Write 8, numbered after it, executed
// earlier and was acknowledged; write 5, numbered before it, executed later
// and was cut. Committing by acknowledgement keeps the oracle clean;
// committing in submission order would expect 5 and not 8.
func TestPipeCutRule(t *testing.T) {
	sc, n, err := newNetScenario(NetConfig{DeviceConfig: DeviceConfig{Seed: 1, Writes: 40, Shards: 4, Mode: memctrl.ModeSRC, CrashAt: 6}, Pipeline: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.close()
	rec := &settledAtCrash{stack: sc.stack, sc: sc}
	sc.stack = rec
	res := sc.run()
	shard := func(i int) int { return n.dev.ShardOf(sc.ops[i].addr) }
	if sc.crashOp != 7 || sc.replayFrom != 5 || !rec.settled[8] || rec.settled[5] ||
		sc.ops[5].kind != opWrite || sc.ops[8].kind != opWrite || shard(7) != 1 || shard(8) != 0 || shard(5) != 3 {
		t.Fatalf("scenario moved: crash op %d, replay from %d, settled 5=%t 8=%t, shards 5=%d 7=%d 8=%d",
			sc.crashOp, sc.replayFrom, rec.settled[5], rec.settled[8], shard(5), shard(7), shard(8))
	}
	if len(res.Violations) > 0 {
		t.Fatalf("out-of-order cut raised violations: %v", res.Violations)
	}
}
