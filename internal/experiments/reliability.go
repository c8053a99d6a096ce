package experiments

import (
	"fmt"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/faultsim"
	"soteria/internal/runner"
	"soteria/internal/stats"
)

// Fig3 renders the motivation experiment: expected lost/unverifiable data
// versus the number of uncorrectable errors, for a 4 TB memory with and
// without integrity protection (the paper's ~12x amplification).
func Fig3(memBytes uint64, maxErrors int) (*stats.Table, error) {
	if memBytes == 0 {
		memBytes = 4 << 40
	}
	if maxErrors <= 0 {
		maxErrors = 10
	}
	sec, err := NewExpectedLossModel(memBytes, true, core.Baseline())
	if err != nil {
		return nil, err
	}
	non, err := NewExpectedLossModel(memBytes, false, core.Baseline())
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("Fig 3 — expected lost/unverifiable data, %s memory", stats.FormatBytes(float64(memBytes))),
		"uncorrectable errors", "non-secure loss", "secure loss", "amplification")
	for e := 1; e <= maxErrors; e++ {
		n := non.ExpectedLossBytes(e)
		s := sec.ExpectedLossBytes(e)
		t.AddRow(e, stats.FormatBytes(n), stats.FormatBytes(s), s/n)
	}
	return t, nil
}

// Table2 renders the SRC/SAC clone-depth table.
func Table2() *stats.Table {
	src, sac := core.Table2()
	t := stats.NewTable("Table 2 — Soteria metadata cloning depth (9-level tree)",
		"scheme", "L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9")
	row := func(name string, d []int) {
		cells := make([]interface{}, 0, 10)
		cells = append(cells, name)
		for _, v := range d {
			cells = append(cells, v)
		}
		t.AddRow(cells...)
	}
	row("SRC", src)
	row("SAC", sac)
	return t
}

// MTBFTable renders the §4 sanity check: cluster MTBF across the FIT sweep.
func MTBFTable(fits []float64) (*stats.Table, error) {
	if len(fits) == 0 {
		fits = []float64{1, 2, 5, 10, 20, 40, 80}
	}
	t := stats.NewTable("§4 — system MTBF for 20k nodes x 4 DIMMs x 18 chips",
		"FIT/chip", "MTBF (hours)")
	for _, f := range fits {
		m, err := SystemMTBF(f, PaperClusterNodes,
			PaperClusterDIMMs, PaperClusterChips)
		if err != nil {
			return nil, err
		}
		t.AddRow(f, m)
	}
	return t, nil
}

// RelParams scales the Monte Carlo reliability experiments (Fig 11/12).
type RelParams struct {
	// Trials per FIT point (conditional importance-sampled trials).
	Trials int
	// FITs to sweep; nil selects the paper's 1..80 range.
	FITs []float64
	// Seed fixes the fault stream.
	Seed int64
	// ShadowSlots sizes the shadow region (metadata cache slots).
	ShadowSlots uint64
	// Workers bounds sweep parallelism (0 = GOMAXPROCS). Results are
	// bit-identical for any value.
	Workers int
	// Progress receives throttled sweep updates (nil = silent).
	Progress func(runner.Progress)
	// OnPoint receives every completed sweep point with its result and
	// telemetry snapshot (nil = discard). See runner.Options.OnPoint.
	OnPoint func(runner.Point)
}

// engine builds the experiment engine the reliability sweeps share.
func (p RelParams) engine() *runner.Engine {
	return runner.New(runner.Options{
		Workers: p.Workers, OnProgress: p.Progress, OnPoint: p.OnPoint,
	})
}

// sweep assembles the common FaultSweep skeleton.
func (p RelParams) sweep(label string, cfg config.FaultSimConfig, schemes []*faultsim.Scheme) runner.FaultSweep {
	return runner.FaultSweep{
		Config:      cfg,
		FITs:        p.FITs,
		Trials:      p.Trials,
		Seed:        p.Seed,
		Conditional: true,
		Schemes:     schemes,
		Label:       label,
	}
}

// DefaultRelParams returns the default Monte Carlo scale.
func DefaultRelParams() RelParams {
	return RelParams{
		Trials:      120_000,
		FITs:        []float64{1, 2, 5, 10, 20, 40, 80},
		Seed:        7,
		ShadowSlots: 8192,
	}
}

// Fig11Result carries the rendered table plus the headline gains.
type Fig11Result struct {
	Table *stats.Table
	// GainSRC / GainSAC are the geometric-mean UDR reductions versus the
	// baseline (the paper reports 2.5e3 and 3.7e4).
	GainSRC, GainSAC float64
	// UDRs[scheme][fitIndex]
	UDRs map[string][]float64
}

// Fig11 runs the UDR-versus-FIT sweep for baseline, SRC and SAC under
// Chipkill (the paper's Fig 11).
func Fig11(p RelParams) (*Fig11Result, error) {
	if p.Trials == 0 {
		p = DefaultRelParams()
	}
	fsCfg := config.Table4()
	d := fsCfg.DIMM
	schemes := make([]*faultsim.Scheme, 0, 3)
	for _, pol := range []core.ClonePolicy{core.Baseline(), core.SRC(), core.SAC()} {
		s, err := faultsim.BuildScheme(d, pol, p.ShadowSlots)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, s)
	}

	t := stats.NewTable("Fig 11 — UDR vs FIT under Chipkill (5-year lifetime)",
		"FIT/chip", "baseline UDR", "SRC UDR", "SAC UDR", "UE trials (cond.)")
	udrs := map[string][]float64{"baseline": nil, "SRC": nil, "SAC": nil}
	results, err := p.engine().RunFaultSweep(p.sweep("fig11", fsCfg, schemes))
	if err != nil {
		return nil, err
	}
	for i, fit := range p.FITs {
		res := results[i]
		b := res.Schemes[0].UDR(res.Trials)
		s := res.Schemes[1].UDR(res.Trials)
		a := res.Schemes[2].UDR(res.Trials)
		udrs["baseline"] = append(udrs["baseline"], b)
		udrs["SRC"] = append(udrs["SRC"], s)
		udrs["SAC"] = append(udrs["SAC"], a)
		t.AddRow(fit, b, s, a, res.Schemes[0].TrialsWithUE)
	}
	// Loss floor: one 64-byte line per trial set, the smallest resolvable
	// loss of the sweep.
	floor := 64.0 / (float64(p.Trials) * float64(schemes[0].Layout.DataBytes))
	return &Fig11Result{
		Table:   t,
		GainSRC: ResilienceGain(udrs["baseline"], udrs["SRC"], floor),
		GainSAC: ResilienceGain(udrs["baseline"], udrs["SAC"], floor),
		UDRs:    udrs,
	}, nil
}

// StrongECC reproduces the §3.1/§6.2 design comparison (Fig 5): is it
// better to strengthen the module's ECC for everyone, or to clone the
// security metadata? It reports UDR across the FIT sweep for the baseline
// under Chipkill, the baseline under a double-Chipkill "stronger ECC", and
// SRC under plain Chipkill. The paper's claim: "Soteria with baseline ECC
// can provide better survivability of security metadata compared to a
// stronger ECC working alone."
func StrongECC(p RelParams) (*stats.Table, error) {
	if p.Trials == 0 {
		p = DefaultRelParams()
	}
	fsCfg := config.Table4()
	d := fsCfg.DIMM
	base, err := faultsim.BuildScheme(d, core.Baseline(), p.ShadowSlots)
	if err != nil {
		return nil, err
	}
	src, err := faultsim.BuildScheme(d, core.SRC(), p.ShadowSlots)
	if err != nil {
		return nil, err
	}
	eng := p.engine()
	weakSweep := p.sweep("strongecc/chipkill", fsCfg, []*faultsim.Scheme{base, src})
	multiSweep := p.sweep("strongecc/multibit", fsCfg, []*faultsim.Scheme{base})
	multiSweep.ECC = faultsim.ECCMultiBit
	doubleSweep := p.sweep("strongecc/double", fsCfg, []*faultsim.Scheme{base})
	doubleSweep.ECC = faultsim.ECCDoubleChipkill
	weak, err := eng.RunFaultSweep(weakSweep)
	if err != nil {
		return nil, err
	}
	multibit, err := eng.RunFaultSweep(multiSweep)
	if err != nil {
		return nil, err
	}
	double, err := eng.RunFaultSweep(doubleSweep)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("§6.2 — stronger ECC vs metadata cloning (UDR)",
		"FIT/chip", "baseline + Chipkill", "baseline + multi-bit ECC", "baseline + 2x-Chipkill", "SRC + Chipkill")
	for i, fit := range p.FITs {
		t.AddRow(fit,
			weak[i].Schemes[0].UDR(weak[i].Trials),
			multibit[i].Schemes[0].UDR(multibit[i].Trials),
			double[i].Schemes[0].UDR(double[i].Trials),
			weak[i].Schemes[1].UDR(weak[i].Trials))
	}
	return t, nil
}

// TreeComparison quantifies the §6.1 discussion: BMT intermediate nodes
// are recomputable from children (so only leaf faults lose data), while
// ToC nodes are not — the resilience gap Soteria's clones close. Columns:
// ToC baseline, BMT with no clones, BMT with leaf-only SRC-style clones,
// and ToC SRC.
func TreeComparison(p RelParams, fit float64) (*stats.Table, error) {
	if p.Trials == 0 {
		p = DefaultRelParams()
	}
	if fit == 0 {
		fit = 80
	}
	fsCfg := config.Table4()
	d := fsCfg.DIMM
	tocBase, err := faultsim.BuildScheme(d, core.Baseline(), p.ShadowSlots)
	if err != nil {
		return nil, err
	}
	tocSRC, err := faultsim.BuildScheme(d, core.SRC(), p.ShadowSlots)
	if err != nil {
		return nil, err
	}
	bmt, err := faultsim.BuildScheme(d, core.Baseline(), p.ShadowSlots)
	if err != nil {
		return nil, err
	}
	bmt.Name = "BMT"
	bmt.RecomputableAbove = 1
	leafPolicy, err := core.Custom("BMT+leaf-clones", []int{2, 1})
	if err != nil {
		return nil, err
	}
	bmtClones, err := faultsim.BuildScheme(d, leafPolicy, p.ShadowSlots)
	if err != nil {
		return nil, err
	}
	bmtClones.RecomputableAbove = 1

	res, err := p.engine().RunFaultPoint(
		p.sweep("trees", fsCfg, []*faultsim.Scheme{tocBase, bmt, bmtClones, tocSRC}), fit)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("§6.1 — integrity-tree comparison (UDR at FIT=%g)", fit),
		"scheme", "UDR", "vs ToC baseline")
	base := res.Schemes[0].UDR(res.Trials)
	for _, s := range res.Schemes {
		udr := s.UDR(res.Trials)
		gain := 0.0
		if udr > 0 {
			gain = base / udr
		}
		t.AddRow(s.Name, udr, gain)
	}
	return t, nil
}

// Fig12 projects per-DIMM loss ratios onto a practical memory size (the
// paper uses 8 TB) and splits total loss into L_error and L_unverifiable
// for non-secure, baseline, SRC and SAC.
func Fig12(p RelParams, fit float64, targetBytes uint64) (*stats.Table, error) {
	if p.Trials == 0 {
		p = DefaultRelParams()
	}
	if fit == 0 {
		fit = 40
	}
	if targetBytes == 0 {
		targetBytes = 8 << 40
	}
	fsCfg := config.Table4()
	d := fsCfg.DIMM
	schemes := []*faultsim.Scheme{faultsim.NonSecureScheme(d)}
	for _, pol := range []core.ClonePolicy{core.Baseline(), core.SRC(), core.SAC()} {
		s, err := faultsim.BuildScheme(d, pol, p.ShadowSlots)
		if err != nil {
			return nil, err
		}
		schemes = append(schemes, s)
	}
	res, err := p.engine().RunFaultPoint(p.sweep("fig12", fsCfg, schemes), fit)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable(
		fmt.Sprintf("Fig 12 — expected 5-year data loss scaled to %s (FIT=%g)",
			stats.FormatBytes(float64(targetBytes)), fit),
		"scheme", "L_error", "L_unverifiable", "L_total", "vs non-secure")
	nsTotal := 0.0
	for i, sr := range res.Schemes {
		scale := float64(targetBytes)
		lErr := sr.ErrorRatio(res.Trials) * scale
		lUnv := sr.UDR(res.Trials) * scale
		total := lErr + lUnv
		if i == 0 {
			nsTotal = total
		}
		ratio := 0.0
		if nsTotal > 0 {
			ratio = total / nsTotal
		}
		t.AddRow(sr.Name, stats.FormatBytes(lErr), stats.FormatBytes(lUnv), stats.FormatBytes(total), ratio)
	}
	return t, nil
}
