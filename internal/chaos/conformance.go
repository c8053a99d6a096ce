package chaos

import (
	"fmt"

	"soteria/internal/memctrl"
)

// ConformanceConfig shapes one strategy's trip through the shared
// conformance suite. The same config drives every registered strategy, so
// the suite is an apples-to-apples contract: identical workload, identical
// crash schedule, identical acknowledged-write oracle.
type ConformanceConfig struct {
	Seed   int64
	Writes int
	Mode   memctrl.Mode
	// Stride thins the crash-point sweeps (1 = every boundary).
	Stride int
	// FaultTrials is the number of fault-campaign trials (0 skips the
	// campaign); FaultRate is its per-boundary fault probability.
	FaultTrials int
	FaultRate   float64
	Logf        func(format string, args ...any)
}

// ConformanceResult is one strategy's outcome across the three legs of the
// suite: the full crash-point sweep, the nested crash-during-recovery
// sweep, and the unrecoverable-data fault campaign.
type ConformanceResult struct {
	Strategy    string
	CrashSweep  *CampaignResult
	NestedSweep *CampaignResult
	Faults      *CampaignResult
}

func (r *ConformanceResult) legs() []*CampaignResult {
	return []*CampaignResult{r.CrashSweep, r.NestedSweep, r.Faults}
}

// Failures flattens every failing scenario across the three legs.
func (r *ConformanceResult) Failures() []Failure {
	var out []Failure
	for _, c := range r.legs() {
		if c != nil {
			out = append(out, c.Failures...)
		}
	}
	return out
}

// Runs sums scenario executions across the three legs.
func (r *ConformanceResult) Runs() int {
	n := 0
	for _, c := range r.legs() {
		if c != nil {
			n += c.Runs
		}
	}
	return n
}

// Conformance runs one strategy through the shared suite. The nested sweep
// anchors its first crash at the middle workload boundary — the point where
// the most tracked state is in flight.
func Conformance(strategy string, cfg ConformanceConfig) (*ConformanceResult, error) {
	logf := orNop(cfg.Logf)
	base := Config{
		Seed:     cfg.Seed,
		Writes:   cfg.Writes,
		Mode:     cfg.Mode,
		Strategy: strategy,
		CrashAt:  -1, NestedCrashAt: -1,
	}
	out := &ConformanceResult{Strategy: strategy}

	logf("[%s] crash sweep", strategy)
	cs, err := CrashSweep(base, cfg.Stride, logf)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s crash sweep: %w", strategy, err)
	}
	out.CrashSweep = cs

	if cs.Boundaries > 0 {
		nested := base
		nested.CrashAt = cs.Boundaries / 2
		logf("[%s] nested sweep (first crash at %d)", strategy, nested.CrashAt)
		ns, err := NestedSweep(nested, cfg.Stride, logf)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s nested sweep: %w", strategy, err)
		}
		out.NestedSweep = ns
	}

	if cfg.FaultTrials > 0 {
		faulty := base
		faulty.FaultRate = cfg.FaultRate
		if faulty.FaultRate <= 0 {
			faulty.FaultRate = 0.01
		}
		logf("[%s] fault campaign (%d trials, rate %v)", strategy, cfg.FaultTrials, faulty.FaultRate)
		fc, err := FaultCampaign(faulty, cfg.FaultTrials, logf)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s fault campaign: %w", strategy, err)
		}
		out.Faults = fc
	}
	return out, nil
}
