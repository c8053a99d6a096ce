package faultsim_test

import (
	"math"
	"testing"

	"soteria/internal/config"
	"soteria/internal/core"
	"soteria/internal/faultsim"
	"soteria/internal/runner"
)

// run evaluates one FIT point through runner.Engine, the Monte Carlo
// driver every experiment uses, so these long statistical tests spread
// their trial blocks over every CPU. The result is faultsim.Run's, block
// for block (TestFaultSweepMatchesDirectRun).
func run(opt faultsim.Options, schemes []*faultsim.Scheme) (*faultsim.Result, error) {
	return runner.New(runner.Options{}).RunFaultPoint(runner.FaultSweep{
		Config:      opt.Config,
		Trials:      opt.Trials,
		Seed:        opt.Seed,
		Conditional: opt.Conditional,
		Schemes:     schemes,
	}, opt.TotalFIT)
}

func TestMonteCarloShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo shape test is slow")
	}
	d := config.Table4()
	schemes := []*faultsim.Scheme{faultsim.NonSecureScheme(d.DIMM)}
	for _, p := range []core.ClonePolicy{core.Baseline(), core.SRC(), core.SAC()} {
		s, err := faultsim.BuildScheme(d.DIMM, p, 8192)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, s)
	}
	res, err := run(faultsim.Options{Config: d, TotalFIT: 80, Trials: 60_000, Seed: 42, Conditional: true}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Weight <= 0 || res.Weight >= 1 {
		t.Fatalf("importance weight %v out of range", res.Weight)
	}
	ns, base, src, sac := res.Schemes[0], res.Schemes[1], res.Schemes[2], res.Schemes[3]
	if ns.TotalLUnv != 0 {
		t.Fatal("non-secure memory reported unverifiable data")
	}
	if base.TotalLUnv == 0 {
		t.Fatal("baseline saw no unverifiable data at FIT=80; increase trials?")
	}
	// The paper's ordering: baseline >> SRC >= SAC.
	if src.TotalLUnv > base.TotalLUnv {
		t.Fatalf("SRC (%v) lost more than baseline (%v)", src.TotalLUnv, base.TotalLUnv)
	}
	if sac.TotalLUnv > src.TotalLUnv {
		t.Fatalf("SAC (%v) lost more than SRC (%v)", sac.TotalLUnv, src.TotalLUnv)
	}
	// L_error is scheme-independent (same physical faults, ~same data
	// capacity).
	if base.TotalLErr == 0 || ns.TotalLErr == 0 {
		t.Fatal("no direct data errors at FIT=80")
	}
}

// Statistical cross-check of the importance-sampling path: conditioned
// sampling (weighted by P(N >= 2)) must agree with plain sampling on the
// baseline scheme's UDR at FIT 80 within 3 combined standard errors.
func TestConditionalMatchesRawUDR(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check is slow")
	}
	cfg := config.Table4()
	d := cfg.DIMM
	base, err := faultsim.BuildScheme(d, core.Baseline(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []*faultsim.Scheme{base}

	cond, err := run(faultsim.Options{
		Config: cfg, TotalFIT: 80, Trials: 20_000, Seed: 17, Conditional: true,
	}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	// Plain sampling wastes ~99.8% of trials on fault-free lifetimes, so
	// it needs far more trials for far less precision — which is exactly
	// why the Conditional path exists. Fault-free trials are nearly free,
	// so the raw run stays fast despite the count.
	raw, err := run(faultsim.Options{
		Config: cfg, TotalFIT: 80, Trials: 4_000_000, Seed: 23,
	}, schemes)
	if err != nil {
		t.Fatal(err)
	}

	udrC, sigC := cond.Schemes[0].UDR(cond.Trials), cond.Schemes[0].UDRSigma(cond.Trials)
	udrR, sigR := raw.Schemes[0].UDR(raw.Trials), raw.Schemes[0].UDRSigma(raw.Trials)
	if udrC <= 0 {
		t.Fatal("conditional run saw no unverifiable loss")
	}
	if raw.Schemes[0].TrialsWithUnv == 0 {
		t.Fatal("raw run saw no unverifiable loss; increase trials")
	}
	sigma := math.Sqrt(sigC*sigC + sigR*sigR)
	if diff := math.Abs(udrC - udrR); diff > 3*sigma {
		t.Fatalf("importance sampling disagrees with plain sampling: |%.3g - %.3g| = %.3g > 3σ = %.3g",
			udrC, udrR, diff, 3*sigma)
	}
}

// UDRSigma sanity: a run with loss events reports a positive, finite
// standard error that shrinks roughly like 1/sqrt(trials).
func TestUDRSigmaScaling(t *testing.T) {
	cfg := config.Table4()
	base, err := faultsim.BuildScheme(cfg.DIMM, core.Baseline(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	small, err := run(faultsim.Options{Config: cfg, TotalFIT: 80, Trials: 4_000, Seed: 5, Conditional: true}, []*faultsim.Scheme{base})
	if err != nil {
		t.Fatal(err)
	}
	big, err := run(faultsim.Options{Config: cfg, TotalFIT: 80, Trials: 16_000, Seed: 5, Conditional: true}, []*faultsim.Scheme{base})
	if err != nil {
		t.Fatal(err)
	}
	sSmall := small.Schemes[0].UDRSigma(small.Trials)
	sBig := big.Schemes[0].UDRSigma(big.Trials)
	if sSmall <= 0 || sBig <= 0 || math.IsInf(sSmall, 0) || math.IsNaN(sSmall) {
		t.Fatalf("degenerate sigmas %g, %g", sSmall, sBig)
	}
	// 4x the trials should cut sigma roughly in half; allow slack for the
	// heavy-tailed loss distribution.
	if sBig > sSmall {
		t.Fatalf("sigma grew with trials: %g -> %g", sSmall, sBig)
	}
}
