package chaos

import (
	"strings"
	"testing"

	"soteria/internal/memctrl"
)

func TestNetRunCleanSchedule(t *testing.T) {
	res, err := NetRun(NetConfig{
		Seed:    11,
		Ops:     20,
		Clients: 2,
		Shards:  2,
		Mode:    memctrl.ModeSRC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("clean run violated: %v", res.Violations)
	}
	if res.AckedWrites+res.AckedReads != 40 {
		t.Fatalf("acked %d ops, want 40", res.AckedWrites+res.AckedReads)
	}
	if res.AppliedWrites != uint64(res.AckedWrites) {
		t.Fatalf("applied %d != acked %d", res.AppliedWrites, res.AckedWrites)
	}
}

func TestNetRunCombinedWithKill(t *testing.T) {
	sched, err := NetFaultSchedule("combined")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NetConfig{
		Seed:      5,
		Ops:       25,
		Clients:   3,
		Shards:    2,
		Mode:      memctrl.ModeSRC,
		Kills:     1,
		Schedule:  sched,
		FaultName: "combined",
	}
	res, err := NetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("combined+kill run violated: %v\nrepro: %s", res.Violations, NetRepro(cfg))
	}
	if res.Kills != 1 {
		t.Fatalf("kills = %d, want 1", res.Kills)
	}
	if res.AppliedWrites != uint64(res.AckedWrites) {
		t.Fatalf("exactly-once broken: applied %d != acked %d", res.AppliedWrites, res.AckedWrites)
	}
}

// TestNetRunPipelinedCombinedWithKill drives the windowed batching front
// end through the combined fault schedule plus a kill/restart cycle: the
// acked-write oracle, the exactly-once equality and the batch-frame
// classifier must all hold with go-back-N recovery in play.
func TestNetRunPipelinedCombinedWithKill(t *testing.T) {
	sched, err := NetFaultSchedule("combined")
	if err != nil {
		t.Fatal(err)
	}
	cfg := NetConfig{
		Seed:      5,
		Ops:       25,
		Clients:   3,
		Shards:    2,
		Mode:      memctrl.ModeSRC,
		Kills:     1,
		Pipeline:  4,
		Schedule:  sched,
		FaultName: "combined",
	}
	res, err := NetRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("pipelined combined+kill run violated: %v\nrepro: %s", res.Violations, NetRepro(cfg))
	}
	if res.Batch != 8 {
		t.Fatalf("batch defaulted to %d, want 8", res.Batch)
	}
	if res.AppliedWrites != uint64(res.AckedWrites) {
		t.Fatalf("exactly-once broken: applied %d != acked %d", res.AppliedWrites, res.AckedWrites)
	}
	if !strings.Contains(res.Report(), "front end: pipelined") {
		t.Fatalf("report missing pipelined front-end line:\n%s", res.Report())
	}
	if !strings.Contains(NetRepro(cfg), "-pipeline 4") {
		t.Fatalf("repro missing pipeline flag: %s", NetRepro(cfg))
	}
}

func TestNetReportDeterministic(t *testing.T) {
	run := func() string {
		res, err := NetRun(NetConfig{Seed: 9, Ops: 15, Clients: 2, Shards: 2, Mode: memctrl.ModeSRC})
		if err != nil {
			t.Fatal(err)
		}
		return res.Report()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same config produced different reports:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "oracle:") {
		t.Fatalf("report missing oracle verdict:\n%s", a)
	}
}

func TestNetFaultScheduleNames(t *testing.T) {
	for _, name := range []string{"clean", "latency", "throttle", "corrupt", "reset", "truncate", "partition", "combined"} {
		if _, err := NetFaultSchedule(name); err != nil {
			t.Errorf("schedule %q: %v", name, err)
		}
	}
	if _, err := NetFaultSchedule("bogus"); err == nil {
		t.Error("bogus schedule accepted")
	}
}
