// Command chaos drives the deterministic chaos harness against the memory
// controller, the sharded device (-device), the tenant service (-tenants)
// and the device served over TCP behind a fault proxy (-net): single
// scripted crash/fault scenarios, exhaustive crash-point sweeps ("crash at
// write k, recover, verify, for all k"), nested crash-during-recovery
// sweeps, and randomized fault campaigns. Every failure prints a one-line
// repro command; the same seed always replays the same scenario.
//
// Typical invocations:
//
//	go run ./cmd/chaos -seed 1 -writes 200 -sweep
//	go run ./cmd/chaos -seed 1 -quick -sweep -nested
//	go run ./cmd/chaos -seed 7 -campaign fault -trials 20
//	go run ./cmd/chaos -seed 7 -campaign shadow -break-half-repair
//	go run ./cmd/chaos -seed 3 -writes 60 -mode src -crash-at 30 -crash-at2 12
//	go run ./cmd/chaos -seed 2 -writes 80 -strategy triad-nvm -sweep
//	go run ./cmd/chaos -seed 1 -quick -schemes
//	go run ./cmd/chaos -device -shards 4 -seed 5 -writes 120 -crash-at 50
//	go run ./cmd/chaos -tenants -quick -sweep
//	go run ./cmd/chaos -tenants -schemes -quick
//	go run ./cmd/chaos -net -sweep -quick -pipeline 4
//	go run ./cmd/chaos -net -quick -net-fault combined -kills 1 -crash-at 25
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"soteria/internal/chaos"
	"soteria/internal/memctrl"
)

func main() {
	inv, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	inv.exec()
}

// invocation is what one command line asks for.
type invocation struct {
	// target is the chosen stack's config: the single run, or the base of
	// a sweep, campaign or suite.
	target chaos.Target
	// leg names a device-backed stack in report lines ("device", "tenant"
	// or "net"); what describes its single run.
	leg, what              string
	sweep, nested, schemes bool
	campaign               string // "fault", "shadow" or none
	stride, trials         int
	// invert (-break-half-repair) makes finding violations the success.
	invert bool
	logf   func(string, ...any)
}

// Flags only one stack honours; every other stack refuses them.
var (
	harnessOnly = []string{"campaign", "nested", "crash-at2", "fault-rate", "shadow-faults", "break-half-repair"}
	tenantOnly  = []string{"tenant-count", "rotate-at"}
	netOnly     = []string{"net-fault", "net-clients", "pipeline", "net-batch", "kills"}
)

// parseFlags defines the command's flags on fs, parses args and returns
// the chosen stack's invocation, or an error that refuses, in one
// message, every flag set that the stack cannot honour.
func parseFlags(fs *flag.FlagSet, args []string) (*invocation, error) {
	var (
		seed         = fs.Int64("seed", 1, "master seed for workload, fault schedule and crash points")
		writes       = fs.Int("writes", 200, "workload length in data operations")
		modeName     = fs.String("mode", "src", "controller mode: nonsecure|baseline|src|sac")
		strategyName = fs.String("strategy", "", "metadata-persistence strategy: "+strings.Join(memctrl.Strategies(), "|")+" (default soteria)")
		schemes      = fs.Bool("schemes", false, "run the cross-scheme conformance suite: every registered strategy through crash sweep, nested sweep and fault campaign")
		sweep        = fs.Bool("sweep", false, "crash at every stride-th workload boundary")
		nested       = fs.Bool("nested", false, "sweep a second crash over the recovery's own boundaries")
		stride       = fs.Int("stride", 1, "boundary step for -sweep and -nested")
		crashAt      = fs.Int("crash-at", -1, "crash at this workload boundary (single run, or first crash for -nested)")
		crashAt2     = fs.Int("crash-at2", -1, "crash at this boundary of the recovery (needs -crash-at)")
		campaign     = fs.String("campaign", "", "randomized campaign: fault|shadow")
		trials       = fs.Int("trials", 20, "trials per campaign")
		faultRate    = fs.Float64("fault-rate", 0.01, "per-boundary device fault probability (single runs only when set explicitly)")
		shadowFaults = fs.Int("shadow-faults", 2, "shadow entry halves to corrupt before recovery (single runs only when set explicitly)")
		breakRepair  = fs.Bool("break-half-repair", false, "disable Soteria half repair; the harness must catch the resulting loss")
		quick        = fs.Bool("quick", false, "smoke-test sizes: writes 60, stride 5, trials 5 (unless set explicitly)")
		deviceRun    = fs.Bool("device", false, "run against the sharded internal/device service instead of a bare controller")
		tenantsRun   = fs.Bool("tenants", false, "run the multi-tenant service leg: per-tenant acked-write oracle, cross-tenant isolation oracle and online rotation under crashes; combine with -sweep or -schemes")
		tenantCount  = fs.Int("tenant-count", 3, "provisioned tenants for -tenants")
		rotateAt     = fs.Int("rotate-at", -1, "for -tenants: begin an online key rotation of tenant 1 before this workload op (default: mid-workload; -1 disables only when set explicitly)")
		shards       = fs.Int("shards", 4, "shard count for -device, -tenants and -net")
		netRun       = fs.Bool("net", false, "serve the device over TCP behind a fault proxy (server + proxy + retrying clients); combine with -sweep to crash-sweep every fault case")
		netFault     = fs.String("net-fault", "clean", "fault schedule for -net: clean|latency|throttle|corrupt|reset|truncate|partition|combined")
		netClients   = fs.Int("net-clients", 3, "stop-and-wait clients for -net (op i goes to client i mod n)")
		netPipeline  = fs.Int("pipeline", 0, "for -net: send the workload through one pipe with this many batch frames in flight")
		netBatch     = fs.Int("net-batch", 0, "for -net with -pipeline: max ops per batch frame (default 8)")
		kills        = fs.Int("kills", 0, "server kill/restart cycles mid-workload for -net")
		verbose      = fs.Bool("v", false, "per-run progress output")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *quick {
		if !set["writes"] {
			*writes = 60
		}
		if !set["stride"] {
			*stride = 5
		}
		if !set["trials"] {
			*trials = 5
		}
	}
	mode, err := memctrl.ParseMode(*modeName)
	if err != nil {
		return nil, err
	}
	inv := &invocation{sweep: *sweep, nested: *nested, schemes: *schemes, campaign: *campaign,
		stride: *stride, trials: *trials, invert: *breakRepair, logf: func(string, ...any) {}}
	var logf func(string, ...any) // the runs' progress; nil without -v
	if *verbose {
		logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
		inv.logf = logf
	}
	// The device under the -device, -tenants and -net stacks.
	dev := chaos.DeviceConfig{Seed: *seed, Writes: *writes, Shards: *shards, Mode: mode,
		Strategy: *strategyName, CrashAt: *crashAt, Logf: logf}
	// -schemes runs every strategy, each through its own crash points.
	suiteOnly := []string{"sweep", "crash-at", "strategy"}

	var leg string
	var refused []string
	switch {
	case *netRun:
		leg = "-net supports single runs and -sweep only"
		refused = slices.Concat(harnessOnly, tenantOnly, []string{"device", "tenants", "schemes"})
		inv.leg, inv.what = "net", fmt.Sprintf("net run: %d shards, fault %s, %d kills", *shards, *netFault, *kills)
		inv.target = chaos.NetConfig{DeviceConfig: dev, Clients: *netClients, Kills: *kills,
			FaultName: *netFault, Pipeline: *netPipeline, Batch: *netBatch}
	case *tenantsRun:
		leg = "-tenants supports single runs, -sweep and -schemes only"
		refused = slices.Concat(harnessOnly, netOnly, []string{"device"})
		if *schemes {
			refused = slices.Concat(refused, suiteOnly)
		}
		inv.leg, inv.what = "tenant", fmt.Sprintf("tenant run: %d tenants, %d shards", *tenantCount, *shards)
		cfg := chaos.TenantConfig{DeviceConfig: dev, Tenants: *tenantCount, RotateAt: *rotateAt}
		if !set["rotate-at"] {
			// Rotation coverage on by default: kick off tenant 1's key
			// rotation mid-workload so sweeps cross the rotation window.
			cfg.RotateAt = *writes / 2
		}
		inv.target = cfg
	case *deviceRun:
		leg = "-device supports single runs and -sweep only"
		refused = slices.Concat(harnessOnly, tenantOnly, netOnly, []string{"schemes"})
		inv.leg, inv.what = "device", fmt.Sprintf("device run: %d shards", *shards)
		inv.target = dev
	default:
		leg = "the bare controller has no shards, tenants or network"
		refused = slices.Concat(tenantOnly, netOnly, []string{"shards"})
		if *schemes {
			leg = "-schemes is a self-contained suite"
			refused = slices.Concat(refused, suiteOnly, []string{"campaign", "nested", "crash-at2", "shadow-faults", "break-half-repair"})
		}
		cfg := chaos.Config{Seed: *seed, Writes: *writes, Mode: mode, Strategy: *strategyName,
			CrashAt: *crashAt, NestedCrashAt: *crashAt2, BreakHalfRepair: *breakRepair, Logf: logf}
		if *breakRepair && *campaign == "" && !set["crash-at"] {
			// -break-half-repair on its own means "prove the harness
			// catches a sabotaged recovery": run the shadow campaign
			// against it. With an explicit -crash-at (a printed repro
			// line) the single run replays the exact scenario instead.
			inv.campaign = "shadow"
		}
		// A campaign draws its own crash points.
		campaignOnly := []string{"sweep", "nested", "crash-at", "crash-at2"}
		switch {
		case *schemes:
			cfg.FaultRate = *faultRate // the suite's fault campaign
		case inv.campaign == "fault":
			refused = slices.Concat(refused, campaignOnly, []string{"shadow-faults"})
			cfg.FaultRate = *faultRate
			cfg.CrashAt, cfg.NestedCrashAt = -1, -1
		case inv.campaign == "shadow":
			refused = slices.Concat(refused, campaignOnly, []string{"fault-rate"})
			cfg.ShadowFaults = *shadowFaults
			cfg.CrashAt, cfg.NestedCrashAt = -1, -1
		case inv.campaign != "":
			return nil, fmt.Errorf("unknown -campaign %q (want fault|shadow)", *campaign)
		case *nested:
			refused = slices.Concat(refused, []string{"sweep", "crash-at2", "shadow-faults"})
		case *sweep:
			refused = slices.Concat(refused, []string{"crash-at", "crash-at2", "shadow-faults"})
		}
		if set["fault-rate"] {
			cfg.FaultRate = *faultRate
		}
		if set["shadow-faults"] {
			cfg.ShadowFaults = *shadowFaults
		}
		inv.target = cfg
	}
	var bad []string
	for _, f := range refused {
		if set[f] {
			bad = append(bad, "-"+f)
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("%s; drop %s", leg, strings.Join(bad, " "))
	}
	if *netPipeline > 0 && set["net-clients"] && *netClients > 1 {
		return nil, fmt.Errorf("-pipeline sends through one pipe; it cannot be combined with -net-clients %d", *netClients)
	}
	return inv, nil
}

// exec runs the invocation, prints its report and exits non-zero on
// failure. Campaigns and nested sweeps are the controller's alone, and
// the net stack's sweep is NetSweep, every fault case in turn.
func (inv *invocation) exec() {
	cfg, _ := inv.target.(chaos.Config)
	what := inv.name("crash sweep")
	var res *chaos.CampaignResult
	var err error
	switch {
	case inv.schemes:
		inv.suite()
		return
	case inv.campaign == "fault":
		what = "fault campaign"
		res, err = chaos.FaultCampaign(cfg, inv.trials, inv.logf)
	case inv.campaign == "shadow":
		what = "shadow campaign"
		res, err = chaos.ShadowCampaign(cfg, inv.trials, inv.logf)
	case inv.nested:
		what = "nested sweep"
		res, err = chaos.NestedSweep(cfg, inv.stride, inv.logf)
	case inv.sweep && inv.leg == "net":
		what = "net sweep"
		res, err = chaos.NetSweep(inv.target.(chaos.NetConfig), inv.stride, inv.logf)
	case inv.sweep:
		res, err = chaos.CrashSweep(inv.target, inv.stride, inv.logf)
	default:
		what = inv.name("run")
		res, err = inv.single()
	}
	report(what, res, err, inv.invert)
}

// name prefixes a report's name with the device-backed leg.
func (inv *invocation) name(what string) string {
	if inv.leg == "" {
		return what
	}
	return inv.leg + " " + what
}

// suite runs every registered strategy through the stack's suite — the
// three conformance legs on the controller, a crash sweep on the tenant
// service — printing a line per strategy.
func (inv *invocation) suite() {
	bad := false
	for _, strategy := range memctrl.Strategies() {
		name, res, err := "tenants", (*chaos.CampaignResult)(nil), error(nil)
		switch cfg := inv.target.(type) {
		case chaos.Config:
			cfg.Strategy = strategy
			var r *chaos.ConformanceResult
			if r, err = chaos.Conformance(cfg, inv.stride, inv.trials); err == nil {
				name, res = "schemes", &chaos.CampaignResult{Runs: r.Runs(), Failures: r.Failures()}
			}
		case chaos.TenantConfig:
			cfg.Strategy = strategy
			res, err = chaos.CrashSweep(cfg, inv.stride, inv.logf)
		}
		if err != nil {
			fatal(err)
		}
		bad = schemeLine(name, strategy, res.Runs, res.Failures) || bad
	}
	if bad {
		os.Exit(1)
	}
}

// single is one scripted run — exactly what a printed repro line replays —
// as a one-run campaign, so it reports like a sweep.
func (inv *invocation) single() (*chaos.CampaignResult, error) {
	cfg, ctrl := inv.target.(chaos.Config)
	if ctrl && cfg.NestedCrashAt >= 0 && cfg.CrashAt < 0 {
		fmt.Println("note: -crash-at2 has no effect without -crash-at (no first crash to recover from)")
	}
	res, err := chaos.Run(inv.target)
	if err != nil {
		return nil, err
	}
	if ctrl {
		ctrlLine(res)
	} else {
		runLine(inv.what, res)
	}
	out := &chaos.CampaignResult{Runs: 1, Boundaries: res.Boundaries}
	if len(res.Violations) > 0 {
		out.Failures = []chaos.Failure{{Repro: inv.target.Repro(), Violations: res.Violations}}
	}
	return out, nil
}

// ctrlLine prints a controller run's crash coordinates and fault count.
func ctrlLine(res *chaos.Result) {
	if res.Crashed {
		fmt.Printf("run: %d boundaries, crashed at %d", res.Boundaries, res.CrashBoundary)
		if res.NestedCrashed {
			fmt.Printf(" (nested crash during recovery)")
		}
		if res.Report != nil {
			fmt.Printf(", recovered %d/%d tracked blocks", res.Report.RecoveredBlocks(), res.Report.TrackedEntries())
		}
		fmt.Println()
	} else {
		fmt.Printf("run: %d boundaries, no crash\n", res.Boundaries)
	}
	if len(res.Faults) > 0 {
		fmt.Printf("injected %d device faults\n", len(res.Faults))
	}
}

// runLine prints a device-backed single run's crash coordinates.
func runLine(what string, res *chaos.Result) {
	if !res.Crashed {
		fmt.Printf("%s, %d boundaries, no crash\n", what, res.Boundaries)
		return
	}
	fmt.Printf("%s, %d boundaries, crashed at %d (shard %d)", what, res.Boundaries, res.CrashBoundary, res.CrashShard)
	if res.Report != nil {
		fmt.Printf(", recovered %d/%d tracked blocks", res.Report.RecoveredBlocks(), res.Report.TrackedEntries())
	}
	fmt.Println()
}

// schemeLine prints one strategy's suite outcome, each failure with its
// repro line, and reports whether anything failed.
func schemeLine(suite, strategy string, runs int, fails []chaos.Failure) bool {
	for _, f := range fails {
		for _, v := range f.Violations {
			fmt.Printf("VIOLATION: %s\n", v)
		}
		fmt.Printf("REPRO: %s\n", f.Repro)
	}
	status := "ok"
	if len(fails) > 0 {
		status = fmt.Sprintf("%d FAILED runs", len(fails))
	}
	fmt.Printf("%s %-13s %4d runs, %s\n", suite, strategy+":", runs, status)
	return len(fails) > 0
}

// report prints failures with their repro lines and exits. With inverted
// expectations (-break-half-repair) finding violations is the success case:
// the harness proved it catches a sabotaged recovery.
func report(what string, res *chaos.CampaignResult, err error, invert bool) {
	if err != nil {
		fatal(err)
	}
	for _, f := range res.Failures {
		for _, v := range f.Violations {
			fmt.Printf("VIOLATION: %s\n", v)
		}
		fmt.Printf("REPRO: %s\n", f.Repro)
	}
	if invert {
		if len(res.Failures) == 0 {
			fmt.Printf("%s: %d runs and the sabotaged recovery was NOT caught\n", what, res.Runs)
			os.Exit(1)
		}
		fmt.Printf("%s: sabotaged recovery caught in %d of %d runs (%d violations) — harness works\n",
			what, len(res.Failures), res.Runs, res.ViolationCount())
		return
	}
	if len(res.Failures) > 0 {
		fmt.Printf("%s: %d of %d runs FAILED (%d violations)\n", what, len(res.Failures), res.Runs, res.ViolationCount())
		os.Exit(1)
	}
	if res.Boundaries > 0 {
		fmt.Printf("%s: %d runs, %d boundaries, no violations\n", what, res.Runs, res.Boundaries)
	} else {
		fmt.Printf("%s: %d runs, no violations\n", what, res.Runs)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "chaos: %v\n", strings.TrimPrefix(err.Error(), "chaos: "))
	os.Exit(1)
}
