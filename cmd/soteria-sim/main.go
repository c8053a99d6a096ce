// Command soteria-sim runs one workload through the secure NVM memory
// controller in one or more protection modes and prints the full
// statistics breakdown — the quickest way to poke at the simulator.
//
// Usage:
//
//	soteria-sim -workload hashmap -mode SRC -ops 200000
//	soteria-sim -workload uBENCH128 -mode baseline -check
//	soteria-sim -mode baseline,SRC,SAC -workers 3 -metrics telemetry.json
//	soteria-sim -list
//
// With -metrics the merged telemetry snapshot of all modes is written to
// the given file (.prom extension selects the Prometheus text format,
// anything else deterministic JSON; "-" prints JSON to stdout). The
// snapshot is byte-identical for a fixed configuration at any -workers
// value. -pprof captures a CPU profile of the whole run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"soteria/internal/config"
	"soteria/internal/cpusim"
	"soteria/internal/memctrl"
	"soteria/internal/runner"
	"soteria/internal/telemetry"
	"soteria/internal/workload"
)

// simParams is everything runSim needs; main fills it from flags, the
// golden-snapshot test fills it directly.
type simParams struct {
	workload  string
	modes     []memctrl.Mode
	ops       uint64
	warmup    uint64
	footprint uint64
	seed      int64
	check     bool
	workers   int
}

// simRun is one mode's completed simulation with its telemetry snapshot.
type simRun struct {
	mode memctrl.Mode
	res  cpusim.Result
	snap *telemetry.Snapshot
}

// runSim executes the workload once per requested mode through the shared
// worker pool and returns the per-mode results plus the telemetry
// snapshots merged in mode order. Each mode runs against its own
// controller and registry (attached after the warm-up stats reset, so
// telemetry covers exactly the measured window); the merge order is fixed,
// so the combined snapshot does not depend on the worker count.
func runSim(p simParams) ([]simRun, *telemetry.Snapshot, error) {
	w, err := workload.ByName(p.workload)
	if err != nil {
		return nil, nil, err
	}
	runs := make([]simRun, len(p.modes))
	eng := runner.New(runner.Options{Workers: p.workers})
	err = eng.Do("sim", len(p.modes), func(i int) error {
		mode := p.modes[i]
		cfg := config.Table3()
		ctrl, err := memctrl.New(cfg, mode, []byte("soteria-sim"), memctrl.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
		cpu, err := cpusim.New(cfg, ctrl)
		if err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
		cpu.Check = p.check
		gen := w.New(p.footprint, p.seed)
		if p.warmup > 0 {
			if _, err := cpu.Run(gen, p.warmup); err != nil {
				return fmt.Errorf("%s: %w", mode, err)
			}
			ctrl.ResetStats()
		}
		reg := telemetry.NewRegistry()
		ctrl.AttachTelemetry(reg)
		res, err := cpu.Run(gen, p.warmup+p.ops)
		if err != nil {
			return fmt.Errorf("%s: %w", mode, err)
		}
		runs[i] = simRun{mode: mode, res: res, snap: reg.Snapshot()}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	merged := &telemetry.Snapshot{}
	for _, r := range runs {
		merged.Merge(r.snap)
	}
	return runs, merged, nil
}

func main() {
	var (
		wl        = flag.String("workload", "hashmap", "workload name (see -list)")
		mode      = flag.String("mode", "SRC", "protection mode(s), comma-separated: nonsecure | baseline | SRC | SAC")
		ops       = flag.Uint64("ops", 200_000, "memory operations to simulate")
		warmup    = flag.Uint64("warmup", 20_000, "warm-up operations before stats reset")
		footprint = flag.Uint64("footprint", 256<<20, "workload footprint in bytes")
		seed      = flag.Int64("seed", 1, "workload seed")
		check     = flag.Bool("check", false, "verify end-to-end data integrity on every read")
		workers   = flag.Int("workers", 0, "parallel workers across modes (0 = all CPUs; results identical for any value)")
		metrics   = flag.String("metrics", "", "write merged telemetry snapshot to file (.prom = Prometheus text, else JSON, - = stdout)")
		cpuprof   = flag.String("pprof", "", "write a CPU profile of the run to file")
		list      = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-12s (%s)\n", w.Name, w.Class)
		}
		return
	}

	var modes []memctrl.Mode
	for _, s := range strings.Split(*mode, ",") {
		m, err := memctrl.ParseMode(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		modes = append(modes, m)
	}

	if *cpuprof != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}

	runs, merged, err := runSim(simParams{
		workload:  *wl,
		modes:     modes,
		ops:       *ops,
		warmup:    *warmup,
		footprint: *footprint,
		seed:      *seed,
		check:     *check,
		workers:   *workers,
	})
	if err != nil {
		fatal(err)
	}

	for i, r := range runs {
		if i > 0 {
			fmt.Println()
		}
		printRun(r.mode, r.res, *check)
	}

	if *metrics != "" {
		if err := merged.WriteFile(*metrics, fmt.Sprintf("workload=%q", *wl)); err != nil {
			fatal(err)
		}
		if *metrics != "-" {
			fmt.Printf("\ntelemetry snapshot written to %s\n", *metrics)
		}
	}
}

// printRun renders one mode's statistics breakdown.
func printRun(mode memctrl.Mode, res cpusim.Result, check bool) {
	fmt.Printf("workload %s on %s: %d memory ops in %v simulated time\n\n",
		res.Workload, res.Mode, res.MemOps, res.ExecTime.Duration())

	counter := func(name string, n uint64) { fmt.Printf("%-40s %12d\n", name, n) }
	counter("instructions", res.Instructions)
	counter("memory ops", res.MemOps)
	counter("reads", res.Reads)
	counter("writes", res.Writes)
	counter("persist barriers", res.Barriers)
	counter("L1 hits", res.L1.Hits)
	counter("L1 misses", res.L1.Misses)
	counter("LLC misses", res.LLC.Misses)
	counter("controller requests", res.Ctrl.MemRequests)
	counter("NVM reads", res.Ctrl.NVMReads)
	for i := memctrl.WCData; i <= memctrl.WCRecovery; i++ {
		counter("NVM writes: "+i.String(), res.Ctrl.NVMWrites[i])
	}
	counter("WPQ forwards", res.Ctrl.WPQForwards)
	counter("WPQ stalls", res.WPQ.Stalls)
	counter("page re-encryptions", res.Ctrl.PageReencrypt)
	counter("Osiris forced write-backs", res.Ctrl.ForcedWB)
	counter("metadata cache hits", res.Meta.Hits)
	counter("metadata cache misses", res.Meta.Misses)
	counter("dirty tree evictions", res.Meta.DirtyTreeEvictions)

	if byLevel := res.Meta.EvictionsByLevel; mode != memctrl.ModeNonSecure && byLevel != nil {
		var total uint64
		for _, n := range byLevel {
			total += n
		}
		fmt.Println("\neviction share by tree level:")
		for l := 1; l < len(byLevel); l++ {
			if n := byLevel[l]; n > 0 {
				fmt.Printf("  L%-2d %6.2f%% (%d)\n", l, float64(n)/float64(total)*100, n)
			}
		}
	}
	if check {
		fmt.Println("\nend-to-end data integrity verified on every read: OK")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soteria-sim:", err)
	os.Exit(1)
}
