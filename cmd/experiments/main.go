// Command experiments regenerates the tables and figures of the Soteria
// paper's evaluation from the simulators in this repository.
//
// It is the one front end of both simulators: the trace-driven core and
// secure controller (performance) and the Monte Carlo fault simulator
// (reliability).
//
// Usage:
//
//	experiments -run all
//	experiments -run fig11 -trials 500000
//	experiments -run fig11 -fits 1,20,80 -trials 100000 -progress
//	experiments -run fig12 -fit 80 -trials 200000
//	experiments -run fig10a -ops 500000 -footprint 268435456
//	experiments -run stats -workloads tpcc -modes SAC -metacache 0 -llc 0 -check
//
// Experiments: see the -run flag (perf = fig4+fig10a/b/c+metamiss in one
// sweep; stats prints every counter of each (workload, mode) run). An
// unknown name is an error. Stdout carries only the tables; progress,
// timings and commentary go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"soteria/internal/experiments"
	"soteria/internal/memctrl"
	"soteria/internal/runner"
	"soteria/internal/stats"
	"soteria/internal/telemetry"
	"soteria/internal/workload"
)

// names lists every -run value. schemes, tenants and stats are not part
// of all.
var names = []string{
	"table2", "table3", "table4", "fig3", "fig4", "fig10a", "fig10b", "fig10c",
	"fig11", "fig12", "mtbf", "perf", "metamiss", "strongecc", "ablation",
	"ablation-depth", "ablation-eager", "trees", "wear", "schemes", "tenants",
	"stats", "all",
}

func main() {
	var (
		run       = flag.String("run", "all", "experiments to run, comma-separated: "+strings.Join(names, ", ")+" (schemes, tenants and stats are not part of all)")
		ops       = flag.Uint64("ops", 150_000, "measured memory operations per workload (performance experiments)")
		warmup    = flag.Uint64("warmup", 30_000, "warm-up memory operations per workload")
		footprint = flag.Uint64("footprint", 64<<20, "workload data footprint in bytes")
		metaKB    = flag.Int("metacache", 128, "metadata cache size in KB (0 = Table 3's 512 kB; use with paper-scale -ops)")
		llcKB     = flag.Int("llc", 1024, "LLC size in KB (0 = Table 3's 8 MB; use with paper-scale -ops)")
		trials    = flag.Int("trials", 120_000, "Monte Carlo trials per FIT point (reliability experiments)")
		fit       = flag.Float64("fit", 40, "FIT/chip for fig12 and trees")
		fits      = flag.String("fits", "", "comma-separated FIT/chip sweep for fig11 and strongecc (empty = 1,2,5,10,20,40,80)")
		seed      = flag.Int64("seed", 1, "random seed")
		wls       = flag.String("workloads", "", "comma-separated workload filter for the performance sweep (empty = all)")
		modes     = flag.String("modes", "", "comma-separated controller modes for -run stats: nonsecure, baseline, SRC, SAC (empty = baseline,SRC,SAC)")
		check     = flag.Bool("check", false, "verify every read of the performance sweep against the last value written")
		csv       = flag.Bool("csv", false, "emit CSV instead of markdown")
		workers   = flag.Int("workers", 0, "parallel workers (0 = all CPUs; results identical for any value)")
		progress  = flag.Bool("progress", false, "report sweep progress on stderr")
		metrics   = flag.String("metrics", "", "write merged telemetry snapshot of all experiments to file (.prom = Prometheus text, else JSON, - = stdout)")
		cpuprof   = flag.String("pprof", "", "write a CPU profile of the run to file")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		r = strings.TrimSpace(strings.ToLower(r))
		if !slices.Contains(names, r) {
			fatal(fmt.Errorf("unknown experiment %q (known: %s)", r, strings.Join(names, ", ")))
		}
		want[r] = true
	}
	all := want["all"]
	var fitList []float64
	for _, f := range splitList(*fits) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -fits entry %q: %w", f, err))
		}
		fitList = append(fitList, v)
	}
	var modeList []memctrl.Mode
	for _, m := range splitList(*modes) {
		mode, err := memctrl.ParseMode(m)
		if err != nil {
			fatal(err)
		}
		modeList = append(modeList, mode)
	}
	needFigures := all || want["perf"] || want["fig4"] || want["fig10a"] || want["fig10b"] || want["fig10c"] || want["metamiss"]
	if modeList != nil && needFigures {
		fatal(fmt.Errorf("-modes applies only to -run stats: the figures compare baseline, SRC and SAC"))
	}

	if *cpuprof != "" {
		stop, err := telemetry.StartCPUProfile(*cpuprof)
		if err != nil {
			fatal(err)
		}
		defer stop()
	}

	// merged accumulates telemetry across every experiment that runs:
	// Monte Carlo sweep points arrive through the runner's OnPoint hook,
	// performance sweeps through PerfResults.Telemetry. Each source merges
	// in a fixed order, so the combined snapshot is deterministic.
	var merged *telemetry.Snapshot
	var onPoint func(runner.Point)
	if *metrics != "" {
		merged = &telemetry.Snapshot{}
		onPoint = func(p runner.Point) { merged.Merge(p.Result.Telemetry) }
	}

	var onProgress func(runner.Progress)
	if *progress {
		onProgress = runner.WriteProgress(os.Stderr)
	}
	relParams := func() experiments.RelParams {
		p := experiments.DefaultRelParams()
		p.Trials, p.Seed = *trials, *seed
		p.Workers, p.Progress, p.OnPoint = *workers, onProgress, onPoint
		if fitList != nil {
			p.FITs = fitList
		}
		return p
	}

	emit := func(t *stats.Table) {
		var err error
		if *csv {
			err = t.WriteCSV(os.Stdout)
		} else {
			err = t.WriteMarkdown(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
	}

	if all || want["table3"] {
		emit(experiments.Table3())
	}
	if all || want["table4"] {
		emit(experiments.Table4())
	}
	if all || want["table2"] {
		emit(experiments.Table2())
	}
	if all || want["fig3"] {
		t, err := experiments.Fig3(4<<40, 10)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	if all || want["mtbf"] {
		t, err := experiments.MTBFTable(nil)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}

	if needFigures || want["stats"] {
		p := experiments.DefaultPerfParams()
		p.Ops, p.Warmup, p.Footprint, p.Seed = *ops, *warmup, *footprint, *seed
		p.Workloads, p.Modes, p.Check = splitList(*wls), modeList, *check
		p.MetaCacheBytes = *metaKB << 10
		p.LLCBytes = *llcKB << 10
		p.Parallelism, p.Progress = *workers, onProgress
		p.CollectTelemetry = *metrics != ""
		start := time.Now()
		nWorkloads, nModes := len(p.Workloads), len(p.Modes)
		if nWorkloads == 0 {
			nWorkloads = len(workload.Names())
		}
		if nModes == 0 {
			nModes = 3
		}
		fmt.Fprintf(os.Stderr, "running performance sweep (%d workloads x %d modes, %d ops each)...\n",
			nWorkloads, nModes, p.Ops)
		res, err := experiments.RunPerf(p)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "performance sweep done in %v\n", time.Since(start).Round(time.Second))
		if p.Check {
			fmt.Fprintln(os.Stderr, "end-to-end data integrity verified on every read: OK")
		}
		if merged != nil {
			merged.Merge(res.Telemetry)
		}
		if all || want["perf"] || want["fig4"] {
			emit(experiments.Fig4(res))
		}
		if all || want["perf"] || want["fig10a"] {
			emit(experiments.Fig10a(res))
		}
		if all || want["perf"] || want["fig10b"] {
			emit(experiments.Fig10b(res))
		}
		if all || want["perf"] || want["fig10c"] {
			emit(experiments.Fig10c(res))
		}
		if all || want["perf"] || want["metamiss"] {
			emit(experiments.MetaMissTable(res))
		}
		if want["stats"] {
			emit(experiments.StatsTable(res))
		}
	}

	if all || want["fig11"] {
		p := relParams()
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running Fig 11 Monte Carlo (%d trials x %d FIT points)...\n", p.Trials, len(p.FITs))
		r, err := experiments.Fig11(p)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "Fig 11 done in %v\n", time.Since(start).Round(time.Second))
		emit(r.Table)
		// Commentary, not table data: keep it off the machine-parsable
		// stdout stream.
		fmt.Fprintf(os.Stderr, "geo-mean UDR reduction vs baseline: SRC %.3gx, SAC %.3gx (paper: 2.5e3x, 3.7e4x)\n",
			r.GainSRC, r.GainSAC)
	}
	if all || want["fig12"] {
		p := relParams()
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running Fig 12 Monte Carlo (%d trials at FIT %g)...\n", p.Trials, *fit)
		t, err := experiments.Fig12(p, *fit, 8<<40)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "Fig 12 done in %v\n", time.Since(start).Round(time.Second))
		emit(t)
	}
	if all || want["strongecc"] {
		p := relParams()
		t, err := experiments.StrongECC(p)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	if all || want["ablation"] || want["ablation-depth"] {
		t, err := experiments.AblationCloneDepth(experiments.PerfParams{}, experiments.RelParams{}, 80)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	if all || want["ablation"] || want["ablation-eager"] {
		t, err := experiments.AblationEagerLazy(experiments.PerfParams{})
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	if all || want["trees"] {
		p := relParams()
		t, err := experiments.TreeComparison(p, *fit)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}
	if want["schemes"] {
		p := experiments.DefaultSchemeZooParams()
		p.Trials, p.Seed, p.Workers = *trials, *seed, *workers
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running scheme-zoo comparison (%d Monte Carlo trials)...\n", p.Trials)
		t, err := experiments.SchemeZoo(p)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "scheme zoo done in %v\n", time.Since(start).Round(time.Second))
		emit(t)
	}
	if want["tenants"] {
		p := experiments.DefaultTenantExpParams()
		p.Seed = *seed
		start := time.Now()
		fmt.Fprintf(os.Stderr, "running multi-tenant service experiments (%d ops per run)...\n", p.Ops)
		t, err := experiments.TenantContention(p)
		if err != nil {
			fatal(err)
		}
		emit(t)
		t, err = experiments.TenantRotation(p)
		if err != nil {
			fatal(err)
		}
		emit(t)
		fmt.Fprintf(os.Stderr, "multi-tenant experiments done in %v\n", time.Since(start).Round(time.Second))
	}
	if all || want["wear"] {
		t, err := experiments.WearLeveling(0, 0, 0, *seed)
		if err != nil {
			fatal(err)
		}
		emit(t)
	}

	if merged != nil {
		if err := merged.WriteFile(*metrics, `cmd="experiments"`); err != nil {
			fatal(err)
		}
		if *metrics != "-" {
			fmt.Fprintf(os.Stderr, "telemetry snapshot written to %s\n", *metrics)
		}
	}
}

// splitList splits a comma-separated flag value into trimmed entries (nil
// for an empty value).
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	out := strings.Split(s, ",")
	for i := range out {
		out[i] = strings.TrimSpace(out[i])
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
