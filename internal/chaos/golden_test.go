package chaos

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"soteria/internal/memctrl"
)

// TestSweepTranscriptsGolden pins every run of the standard sweeps and
// campaigns — crash coordinates, per-shard recovery accounting and every
// violation string — against testdata/sweeps.golden. The one-line sweep
// summaries cmd/chaos prints pin only run and boundary counts; this
// transcript changes whenever any single run observes something different.
func TestSweepTranscriptsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/sweeps.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := sweepTranscripts(t)
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("transcript diverges from testdata/sweeps.golden at line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
}

// sweepTranscripts runs each pinned sweep through its exported entry
// point (for the aggregate and the sweep's own log lines), then re-runs
// each of its scenarios one by one to render them.
func sweepTranscripts(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	sweep := func(name string, run func(logf func(string, ...any)) (*CampaignResult, error)) {
		var logs []string
		res, err := run(func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) })
		must(err)
		fmt.Fprintf(&b, "== %s: runs=%d boundaries=%d failures=%d violations=%d\n",
			name, res.Runs, res.Boundaries, len(res.Failures), res.ViolationCount())
		for _, l := range logs {
			fmt.Fprintf(&b, "log: %s\n", l)
		}
	}
	// run renders one scenario whose config logs through logf.
	var logs []string
	logf := func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	run := func(cfg Target, render func(string, []string, *Result) string) *Result {
		logs = nil
		res, err := Run(cfg)
		must(err)
		b.WriteString(render(cfg.Repro(), logs, res))
		return res
	}
	ctrl := func(cfg Config) *Result { cfg.Logf = logf; return run(cfg, renderResult) }
	dev := func(cfg DeviceConfig) *Result { cfg.Logf = logf; return run(cfg, renderDeviceResult) }
	ten := func(cfg TenantConfig) *Result { cfg.Logf = logf; return run(cfg, renderDeviceResult) }
	netRun := func(cfg NetConfig) *Result { cfg.Logf = logf; return run(cfg, renderDeviceResult) }
	const stride = 5
	crashRuns := func(name string, base Config) *Result {
		sweep(name, func(logf func(string, ...any)) (*CampaignResult, error) { return CrashSweep(base, stride, logf) })
		probe := ctrl(base)
		for k := 0; k < probe.Boundaries; k += stride {
			cfg := base
			cfg.CrashAt = k
			ctrl(cfg)
		}
		return probe
	}
	nestedRuns := func(name string, nested Config) {
		sweep(name, func(logf func(string, ...any)) (*CampaignResult, error) { return NestedSweep(nested, stride, logf) })
		first := ctrl(nested)
		for k := 0; k < first.RecoveryBoundaries; k += stride {
			cfg := nested
			cfg.NestedCrashAt = k
			ctrl(cfg)
		}
	}
	campaign := func(name string, base Config, trials int, run func(Config, int, func(string, ...any)) (*CampaignResult, error)) {
		sweep(name, func(logf func(string, ...any)) (*CampaignResult, error) { return run(base, trials, logf) })
		for i := 0; i < trials; i++ {
			cfg := base
			cfg.Seed = base.Seed + int64(i)
			probe := cfg
			probe.ShadowFaults = 0
			p := ctrl(probe)
			if p.Boundaries == 0 {
				continue
			}
			cfg.CrashAt = crashPointFor(cfg.Seed, p.Boundaries)
			ctrl(cfg)
		}
	}

	base := Config{Seed: 1, Writes: 60, Mode: memctrl.ModeSRC, CrashAt: -1, NestedCrashAt: -1}
	probe := crashRuns("crash sweep", base)
	nested := base
	nested.CrashAt = probe.Boundaries / 2
	nestedRuns("nested sweep", nested)

	// Every registered strategy faces all three conformance legs: the crash
	// sweep, the nested crash-during-recovery sweep anchored at its middle
	// boundary, and the fault campaign.
	for _, strategy := range memctrl.Strategies() {
		sb := base
		sb.Strategy = strategy
		p := crashRuns("crash sweep "+strategy, sb)
		nb := sb
		nb.CrashAt = p.Boundaries / 2
		nestedRuns("nested sweep "+strategy, nb)
		fb := sb
		fb.FaultRate = 0.01
		campaign("fault campaign "+strategy, fb, 5, FaultCampaign)
	}

	faulty := base
	faulty.FaultRate = 0.01
	campaign("fault campaign", faulty, 5, FaultCampaign)
	sabotaged := base
	sabotaged.Seed, sabotaged.ShadowFaults, sabotaged.BreakHalfRepair = 7, 2, true
	campaign("shadow campaign", sabotaged, 5, ShadowCampaign)

	dbase := DeviceConfig{Seed: 1, Writes: 60, Shards: 4, Mode: memctrl.ModeSRC, CrashAt: -1}
	sweep("device crash sweep", func(logf func(string, ...any)) (*CampaignResult, error) {
		return CrashSweep(dbase, stride, logf)
	})
	dp := dev(dbase)
	for k := 0; k < dp.Boundaries; k += stride {
		cfg := dbase
		cfg.CrashAt = k
		dev(cfg)
	}

	tbase := TenantConfig{DeviceConfig: DeviceConfig{Seed: 1, Writes: 60, Shards: 4, Mode: memctrl.ModeSRC, CrashAt: -1}, Tenants: 3, RotateAt: 30}
	sweep("tenant crash sweep", func(logf func(string, ...any)) (*CampaignResult, error) {
		return CrashSweep(tbase, stride, logf)
	})
	tp := ten(tbase)
	for k := 0; k < tp.Boundaries; k += stride {
		cfg := tbase
		cfg.CrashAt = k
		ten(cfg)
	}

	// Over TCP: stop-and-wait on a clean link, then one pipe through every
	// fault family and a kill/restart cycle.
	ndev := DeviceConfig{Seed: 1, Writes: 40, Shards: 4, Mode: memctrl.ModeSRC, CrashAt: -1}
	for _, nbase := range []NetConfig{
		{DeviceConfig: ndev, Clients: 3},
		{DeviceConfig: ndev, FaultName: "combined", Kills: 1, Pipeline: 4},
	} {
		sweep("net crash sweep", func(logf func(string, ...any)) (*CampaignResult, error) {
			return CrashSweep(nbase, stride, logf)
		})
		np := netRun(nbase)
		for k := 0; k < np.Boundaries; k += stride {
			cfg := nbase
			cfg.CrashAt = k
			netRun(cfg)
		}
	}
	return b.String()
}

var crashOpRe = regexp.MustCompile(`power loss at .*\(op (\d+)`)

// crashOp recovers the interrupted op index from a run's progress log
// (no result type exports it); -1 when no power loss was logged.
func crashOp(logs []string) string {
	for _, l := range logs {
		if m := crashOpRe.FindStringSubmatch(l); m != nil {
			return m[1]
		}
	}
	return "-1"
}

func renderShard(b *strings.Builder, i int, r *memctrl.RecoveryReport) {
	if r == nil {
		fmt.Fprintf(b, " | shard %d: no report", i)
		return
	}
	fmt.Fprintf(b, " | shard %d: tracked=%d recovered=%d failed=%d lost=%d half-repairs=%d",
		i, r.TrackedEntries, r.RecoveredBlocks, len(r.FailedBlocks), len(r.LostSlots), r.HalfRepairs)
}

func renderViolations(b *strings.Builder, vs []string) {
	for _, v := range vs {
		fmt.Fprintf(b, " | violation: %s", v)
	}
	b.WriteByte('\n')
}

func renderResult(repro string, logs []string, r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | boundaries=%d crashed=%t crash-boundary=%d crash-op=%s crash-shard=- op-errors=%d recovery-boundaries=%d nested=%t",
		repro, r.Boundaries, r.Crashed, r.CrashBoundary, crashOp(logs), r.OpErrors, r.RecoveryBoundaries, r.NestedCrashed)
	for _, f := range r.Faults {
		fmt.Fprintf(&b, " | fault: %s", f)
	}
	for _, n := range r.ShadowFaultNotes {
		fmt.Fprintf(&b, " | shadow fault: %s", n)
	}
	if r.Report != nil {
		renderShard(&b, 0, r.Report.Shards[0])
	}
	renderViolations(&b, r.Violations)
	return b.String()
}

func renderDeviceResult(repro string, logs []string, r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | boundaries=%d crashed=%t crash-boundary=%d crash-op=%s crash-shard=%d op-errors=%d",
		repro, r.Boundaries, r.Crashed, r.CrashBoundary, crashOp(logs), r.CrashShard, r.OpErrors)
	if r.Report != nil {
		for i, s := range r.Report.Shards {
			renderShard(&b, i, s)
		}
	}
	renderViolations(&b, r.Violations)
	return b.String()
}
