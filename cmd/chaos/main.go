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
	"strings"

	"soteria/internal/chaos"
	"soteria/internal/memctrl"
)

func main() {
	var (
		seed         = flag.Int64("seed", 1, "master seed for workload, fault schedule and crash points")
		writes       = flag.Int("writes", 200, "workload length in data operations")
		modeName     = flag.String("mode", "src", "controller mode: nonsecure|baseline|src|sac")
		strategyName = flag.String("strategy", "", "metadata-persistence strategy: "+strings.Join(memctrl.Strategies(), "|")+" (default soteria)")
		schemes      = flag.Bool("schemes", false, "run the cross-scheme conformance suite: every registered strategy through crash sweep, nested sweep and fault campaign")
		sweep        = flag.Bool("sweep", false, "crash at every stride-th workload boundary")
		nested       = flag.Bool("nested", false, "sweep a second crash over the recovery's own boundaries")
		stride       = flag.Int("stride", 1, "boundary step for -sweep and -nested")
		crashAt      = flag.Int("crash-at", -1, "crash at this workload boundary (single run, or first crash for -nested)")
		crashAt2     = flag.Int("crash-at2", -1, "crash at this boundary of the recovery (needs -crash-at)")
		campaign     = flag.String("campaign", "", "randomized campaign: fault|shadow")
		trials       = flag.Int("trials", 20, "trials per campaign")
		faultRate    = flag.Float64("fault-rate", 0.01, "per-boundary device fault probability (single runs only when set explicitly)")
		shadowFaults = flag.Int("shadow-faults", 2, "shadow entry halves to corrupt before recovery (single runs only when set explicitly)")
		breakRepair  = flag.Bool("break-half-repair", false, "disable Soteria half repair; the harness must catch the resulting loss")
		quick        = flag.Bool("quick", false, "smoke-test sizes: writes 60, stride 5, trials 5 (unless set explicitly)")
		deviceRun    = flag.Bool("device", false, "run against the sharded internal/device service instead of a bare controller")
		tenantsRun   = flag.Bool("tenants", false, "run the multi-tenant service leg: per-tenant acked-write oracle, cross-tenant isolation oracle and online rotation under crashes; combine with -sweep or -schemes")
		tenantCount  = flag.Int("tenant-count", 3, "provisioned tenants for -tenants")
		rotateAt     = flag.Int("rotate-at", -1, "for -tenants: begin an online key rotation of tenant 1 before this workload op (default: mid-workload; -1 disables only when set explicitly)")
		shards       = flag.Int("shards", 4, "shard count for -device, -tenants and -net")
		netRun       = flag.Bool("net", false, "serve the device over TCP behind a fault proxy (server + proxy + retrying clients); combine with -sweep to crash-sweep every fault case")
		netFault     = flag.String("net-fault", "clean", "fault schedule for -net: clean|latency|throttle|corrupt|reset|truncate|partition|combined")
		netClients   = flag.Int("net-clients", 3, "stop-and-wait clients for -net (op i goes to client i mod n)")
		netPipeline  = flag.Int("pipeline", 0, "for -net: send the workload through one pipe with this many batch frames in flight")
		netBatch     = flag.Int("net-batch", 0, "for -net with -pipeline: max ops per batch frame (default 8)")
		kills        = flag.Int("kills", 0, "server kill/restart cycles mid-workload for -net")
		verbose      = flag.Bool("v", false, "per-run progress output")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
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

	mode, err := chaos.ParseMode(*modeName)
	if err != nil {
		fatal(err)
	}
	base := chaos.Config{
		Seed:            *seed,
		Writes:          *writes,
		Mode:            mode,
		Strategy:        *strategyName,
		CrashAt:         *crashAt,
		NestedCrashAt:   *crashAt2,
		BreakHalfRepair: *breakRepair,
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Printf(format+"\n", a...) }
		base.Logf = logf
	}
	// The device under the -device, -tenants and -net legs.
	dbase := chaos.DeviceConfig{Seed: *seed, Writes: *writes, Shards: *shards, Mode: mode,
		Strategy: *strategyName, CrashAt: *crashAt, Logf: base.Logf}

	if *netRun {
		if err := netFlagsErr(set, *netPipeline, *netClients); err != nil {
			fatal(err)
		}
		nbase := chaos.NetConfig{
			DeviceConfig: dbase,
			Clients:      *netClients,
			Kills:        *kills,
			FaultName:    *netFault,
			Pipeline:     *netPipeline,
			Batch:        *netBatch,
		}
		if *sweep {
			res, err := chaos.NetSweep(nbase, *stride, logf)
			report("net sweep", res, err, false)
			return
		}
		res, err := chaos.NetRun(nbase)
		if err != nil {
			fatal(err)
		}
		runLine(fmt.Sprintf("net run: %d shards, fault %s, %d kills", *shards, *netFault, *kills), res)
		report("net run", single(chaos.NetRepro(nbase), res.Boundaries, res.Violations), nil, false)
		return
	}

	if *tenantsRun {
		if err := flagsErr("-tenants supports single runs, -sweep and -schemes only", set, append(harnessOnly, "device")...); err != nil {
			fatal(err)
		}
		tbase := chaos.TenantConfig{DeviceConfig: dbase, Tenants: *tenantCount, RotateAt: *rotateAt}
		if !set["rotate-at"] {
			// Rotation coverage on by default: kick off tenant 1's key
			// rotation mid-workload so sweeps cross the rotation window.
			tbase.RotateAt = *writes / 2
		}
		if *schemes {
			bad := false
			for _, strategy := range memctrl.Strategies() {
				cfg := tbase
				cfg.Strategy = strategy
				res, err := chaos.TenantCrashSweep(cfg, *stride, cfg.Logf)
				if err != nil {
					fatal(err)
				}
				bad = schemeLine("tenants", strategy, res.Runs, res.Failures) || bad
			}
			if bad {
				os.Exit(1)
			}
			return
		}
		if *sweep {
			res, err := chaos.TenantCrashSweep(tbase, *stride, logf)
			report("tenant crash sweep", res, err, false)
			return
		}
		res, err := chaos.TenantRun(tbase)
		if err != nil {
			fatal(err)
		}
		runLine(fmt.Sprintf("tenant run: %d tenants, %d shards", *tenantCount, *shards), res)
		report("tenant run", single(chaos.TenantRepro(tbase), res.Boundaries, res.Violations), nil, false)
		return
	}

	if *deviceRun {
		if err := flagsErr("-device supports single runs and -sweep only", set, harnessOnly...); err != nil {
			fatal(err)
		}
		if *sweep {
			res, err := chaos.DeviceCrashSweep(dbase, *stride, logf)
			report("device crash sweep", res, err, false)
			return
		}
		res, err := chaos.DeviceRun(dbase)
		if err != nil {
			fatal(err)
		}
		runLine(fmt.Sprintf("device run: %d shards", *shards), res)
		report("device run", single(chaos.DeviceRepro(dbase), res.Boundaries, res.Violations), nil, false)
		return
	}

	if *schemes {
		if *campaign != "" || *nested || *sweep || *crashAt >= 0 || *breakRepair || set["shadow-faults"] {
			fatal(fmt.Errorf("-schemes is a self-contained suite; combine only with -seed/-writes/-stride/-trials/-fault-rate/-quick"))
		}
		cfg := chaos.ConformanceConfig{
			Seed:        *seed,
			Writes:      *writes,
			Mode:        mode,
			Stride:      *stride,
			FaultTrials: *trials,
			FaultRate:   *faultRate,
			Logf:        base.Logf,
		}
		bad := false
		for _, strategy := range memctrl.Strategies() {
			r, err := chaos.Conformance(strategy, cfg)
			if err != nil {
				fatal(err)
			}
			bad = schemeLine("schemes", strategy, r.Runs(), r.Failures()) || bad
		}
		if bad {
			os.Exit(1)
		}
		return
	}

	switch {
	case *campaign == "fault":
		base.FaultRate = *faultRate
		base.CrashAt, base.NestedCrashAt = -1, -1
		res, err := chaos.FaultCampaign(base, *trials, logf)
		report("fault campaign", res, err, *breakRepair)

	case *campaign == "shadow" || (*breakRepair && *campaign == "" && !set["crash-at"]):
		// -break-half-repair on its own means "prove the harness catches a
		// sabotaged recovery": run the shadow campaign against it. With an
		// explicit -crash-at (a printed repro line) the single-run path
		// below replays the exact scenario instead.
		base.ShadowFaults = *shadowFaults
		base.CrashAt, base.NestedCrashAt = -1, -1
		res, err := chaos.ShadowCampaign(base, *trials, logf)
		report("shadow campaign", res, err, *breakRepair)

	case *campaign != "":
		fatal(fmt.Errorf("unknown -campaign %q (want fault|shadow)", *campaign))

	case *nested:
		if set["fault-rate"] {
			base.FaultRate = *faultRate
		}
		res, err := chaos.NestedSweep(base, *stride, logf)
		report("nested sweep", res, err, *breakRepair)

	case *sweep:
		if set["fault-rate"] {
			base.FaultRate = *faultRate
		}
		res, err := chaos.CrashSweep(base, *stride, logf)
		report("crash sweep", res, err, *breakRepair)

	default:
		// Single scripted run: exactly what a printed repro line replays.
		if base.NestedCrashAt >= 0 && base.CrashAt < 0 {
			fmt.Println("note: -crash-at2 has no effect without -crash-at (no first crash to recover from)")
		}
		if set["fault-rate"] {
			base.FaultRate = *faultRate
		}
		if set["shadow-faults"] {
			base.ShadowFaults = *shadowFaults
		}
		res, err := chaos.Run(base)
		if err != nil {
			fatal(err)
		}
		if res.Crashed {
			fmt.Printf("run: %d boundaries, crashed at %d", res.Boundaries, res.CrashBoundary)
			if res.NestedCrashed {
				fmt.Printf(" (nested crash during recovery)")
			}
			if res.Report != nil {
				fmt.Printf(", recovered %d/%d tracked blocks", res.Report.RecoveredBlocks, res.Report.TrackedEntries)
			}
			fmt.Println()
		} else {
			fmt.Printf("run: %d boundaries, no crash\n", res.Boundaries)
		}
		if len(res.Faults) > 0 {
			fmt.Printf("injected %d device faults\n", len(res.Faults))
		}
		report("run", single(chaos.Repro(base), res.Boundaries, res.Violations), nil, *breakRepair)
	}
}

// harnessOnly names the flags only the single-controller harness honours:
// campaigns, nested crashes and device fault schedules.
var harnessOnly = []string{"campaign", "nested", "crash-at2", "fault-rate", "shadow-faults", "break-half-repair"}

// flagsErr refuses, with one message, every flag set that a leg cannot
// honour.
func flagsErr(leg string, set map[string]bool, flags ...string) error {
	var bad []string
	for _, f := range flags {
		if set[f] {
			bad = append(bad, "-"+f)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s; drop %s", leg, strings.Join(bad, " "))
	}
	return nil
}

// netFlagsErr refuses the flags a -net run cannot honour.
func netFlagsErr(set map[string]bool, pipeline, clients int) error {
	if err := flagsErr("-net supports single runs and -sweep only", set, append(harnessOnly, "device", "tenants", "schemes")...); err != nil {
		return err
	}
	if pipeline > 0 && set["net-clients"] && clients > 1 {
		return fmt.Errorf("-pipeline sends through one pipe; it cannot be combined with -net-clients %d", clients)
	}
	return nil
}

// runLine prints a device-backed single run's crash coordinates.
func runLine(what string, res *chaos.DeviceResult) {
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

// single is one run as a one-run campaign, so it reports like a sweep.
func single(repro string, boundaries int, violations []string) *chaos.CampaignResult {
	out := &chaos.CampaignResult{Runs: 1, Boundaries: boundaries}
	if len(violations) > 0 {
		out.Failures = []chaos.Failure{{Repro: repro, Violations: violations}}
	}
	return out
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
