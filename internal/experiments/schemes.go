package experiments

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/faultsim"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/runner"
	"soteria/internal/sim"
	"soteria/internal/stats"
)

// SchemeZooParams scales the cross-scheme comparison of the registered
// metadata-persistence strategies (the "scheme zoo"). Every number in the
// resulting table is deterministic for a fixed parameter set: the steady
// state and recovery columns come from the simulated clock and device
// operation counts (never wall time), and the UDR column is a seeded
// Monte Carlo.
type SchemeZooParams struct {
	// Ops is the number of measured data operations per scheme.
	Ops int
	// Warmup operations run before the statistics reset.
	Warmup int
	// Seed fixes the workload and the fault stream.
	Seed int64
	// Trials is the Monte Carlo trial count for the UDR column.
	Trials int
	// FIT is the per-chip failure rate for the UDR column.
	FIT float64
	// ShadowSlots is the tracked-slot budget used to size each scheme's
	// shadow region on the Table 4 DIMM.
	ShadowSlots uint64
	// Workers bounds Monte Carlo parallelism (0 = GOMAXPROCS). Results
	// are bit-identical for any value.
	Workers int
}

// DefaultSchemeZooParams returns the scale used by `cmd/experiments`.
func DefaultSchemeZooParams() SchemeZooParams {
	return SchemeZooParams{
		Ops:         20_000,
		Warmup:      4_000,
		Seed:        1,
		Trials:      120_000,
		FIT:         40,
		ShadowSlots: 8192,
	}
}

// schemeRun holds one strategy's measured columns.
type schemeRun struct {
	name        string
	nsPerOp     float64
	writeAmp    float64
	shadowPerOp float64
	recReads    uint64
	recWrites   uint64
	recNS       int64
	recovered   int
	udr         float64
}

// SchemeZoo drives every registered metadata-persistence strategy through
// the identical seeded workload on the test system and reports, per scheme:
// steady-state latency (simulated ns per operation), NVM write
// amplification (total lines written per data line written), shadow-region
// write cost per operation, the cost of a crash recovery (device lines
// read/written and the latency-weighted estimate), and the unverifiable
// data ratio under the Table 4 fault model. It is the experiment behind
// `results/schemes.md` and `cmd/experiments -run schemes`.
func SchemeZoo(p SchemeZooParams) (*stats.Table, error) {
	if p.Ops == 0 {
		p = DefaultSchemeZooParams()
	}
	udrs, err := schemeUDRs(p)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Scheme zoo — metadata-persistence strategies (test system, SRC clones, UDR at FIT=%g)", p.FIT),
		"scheme", "steady ns/op", "NVM write amp", "shadow wr/op",
		"recovery lines R/W", "recovery est", "recovered blocks", "UDR")
	for _, name := range memctrl.Strategies() {
		r, err := runSchemeWorkload(p, name)
		if err != nil {
			return nil, err
		}
		r.udr = udrs[name]
		t.AddRow(r.name,
			stats.FormatFloat(r.nsPerOp),
			stats.FormatFloat(r.writeAmp),
			stats.FormatFloat(r.shadowPerOp),
			fmt.Sprintf("%d/%d", r.recReads, r.recWrites),
			fmt.Sprintf("%.2fus", float64(r.recNS)/1e3),
			r.recovered,
			stats.FormatFloat(r.udr))
	}
	return t, nil
}

// runSchemeWorkload measures one strategy's steady-state and recovery
// columns on the small test system. The op schedule (3:1 write:read over
// the whole data region) is derived only from the seed, so every strategy
// sees the same trace.
func runSchemeWorkload(p SchemeZooParams, name string) (schemeRun, error) {
	r := schemeRun{name: name}
	sys := config.TestSystem()
	ctrl, err := memctrl.New(sys, memctrl.ModeSRC, []byte("scheme-zoo"), memctrl.Options{Strategy: name})
	if err != nil {
		return r, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	blocks := int64(ctrl.Layout().DataBlocks)
	var now sim.Time
	var line nvm.Line
	op := func(i int) error {
		addr := uint64(rng.Int63n(blocks)) * nvm.LineSize
		if i%4 == 3 {
			_, n, err := ctrl.ReadBlock(now, addr)
			now = n
			return err
		}
		binary.LittleEndian.PutUint64(line[:8], uint64(i))
		n, err := ctrl.WriteBlock(now, addr, &line)
		now = n
		return err
	}
	for i := 0; i < p.Warmup; i++ {
		if err := op(i); err != nil {
			return r, fmt.Errorf("%s warmup op %d: %w", name, i, err)
		}
	}
	ctrl.ResetStats()
	start := now
	for i := 0; i < p.Ops; i++ {
		if err := op(p.Warmup + i); err != nil {
			return r, fmt.Errorf("%s op %d: %w", name, i, err)
		}
	}
	st := ctrl.Stats()
	r.nsPerOp = float64((now - start).Duration().Nanoseconds()) / float64(p.Ops)
	if data := st.NVMWrites[memctrl.WCData]; data > 0 {
		r.writeAmp = float64(st.TotalNVMWrites()) / float64(data)
	}
	r.shadowPerOp = float64(st.NVMWrites[memctrl.WCShadow]) / float64(p.Ops)

	// Recovery cost: cut power mid-steady-state and count the device
	// lines the rebuild touches. The simulator does not model recovery
	// latency on the clock (recovery runs "outside time"), so the
	// estimate prices the counted operations at the configured PCM array
	// latencies instead.
	if err := ctrl.Crash(); err != nil {
		return r, fmt.Errorf("%s crash: %w", name, err)
	}
	before := ctrl.Device().Stats()
	rep, err := ctrl.Recover()
	if err != nil {
		return r, fmt.Errorf("%s recover: %w", name, err)
	}
	if len(rep.FailedBlocks) > 0 || len(rep.LostSlots) > 0 {
		return r, fmt.Errorf("%s recovery lost data with no faults injected: %+v", name, rep)
	}
	after := ctrl.Device().Stats()
	r.recReads = after.Reads - before.Reads
	r.recWrites = after.Writes - before.Writes
	r.recNS = int64(r.recReads)*sys.NVM.ReadLatency.Nanoseconds() +
		int64(r.recWrites)*sys.NVM.WriteLatency.Nanoseconds()
	r.recovered = rep.RecoveredBlocks
	if err := ctrl.VerifyAll(); err != nil {
		return r, fmt.Errorf("%s post-recovery verify: %w", name, err)
	}
	return r, nil
}

// schemeUDRs runs one Monte Carlo over the Table 4 DIMM with every
// strategy's layout instantiated side by side: each scheme sizes its own
// shadow region (Soteria one line per slot, Anubis two, Triad none) and
// Triad variants mark their relaxed tree levels recomputable.
func schemeUDRs(p SchemeZooParams) (map[string]float64, error) {
	fsCfg := config.Table4()
	names := memctrl.Strategies()
	schemes := make([]*faultsim.Scheme, 0, len(names))
	for _, name := range names {
		lines, persistLevels, err := memctrl.StrategyReliability(name, p.ShadowSlots)
		if err != nil {
			return nil, err
		}
		s, err := faultsim.BuildScheme(fsCfg.DIMM, core.SRC(), lines)
		if err != nil {
			return nil, err
		}
		s.Name = name
		if persistLevels > 0 {
			// Level N+1 seeds the bounded counter search, everything
			// above it is rewritten wholesale at recovery.
			s.RecomputableAbove = persistLevels + 1
		}
		schemes = append(schemes, s)
	}
	eng := runner.New(runner.Options{Workers: p.Workers})
	res, err := eng.RunFaultPoint(runner.FaultSweep{
		Config:      fsCfg,
		Trials:      p.Trials,
		Seed:        p.Seed,
		Conditional: true,
		Schemes:     schemes,
		Label:       "schemes",
	}, p.FIT)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(names))
	for i, name := range names {
		out[name] = res.Schemes[i].UDR(res.Trials)
	}
	return out, nil
}
