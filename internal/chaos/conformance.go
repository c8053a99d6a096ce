package chaos

import "fmt"

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

// Conformance runs base.Strategy through the shared suite. The same
// suite drives every registered strategy, so it is an apples-to-apples
// contract: identical workload, identical crash schedule, identical
// acknowledged-write oracle. stride thins the crash-point sweeps (1 =
// every boundary); faultTrials fault-campaign trials (0 skips the
// campaign) run at base.FaultRate (default 0.01), which the sweeps leave
// out. base.Logf receives the legs' progress, not the runs'. The nested
// sweep anchors its first crash at the middle workload boundary — the
// point where the most tracked state is in flight.
func Conformance(base Config, stride, faultTrials int) (*ConformanceResult, error) {
	logf, rate, strategy := orNop(base.Logf), base.FaultRate, base.Strategy
	base.CrashAt, base.NestedCrashAt, base.FaultRate, base.Logf = -1, -1, 0, nil
	out := &ConformanceResult{Strategy: strategy}

	logf("[%s] crash sweep", strategy)
	cs, err := CrashSweep(base, stride, logf)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s crash sweep: %w", strategy, err)
	}
	out.CrashSweep = cs

	if cs.Boundaries > 0 {
		nested := base
		nested.CrashAt = cs.Boundaries / 2
		logf("[%s] nested sweep (first crash at %d)", strategy, nested.CrashAt)
		ns, err := NestedSweep(nested, stride, logf)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s nested sweep: %w", strategy, err)
		}
		out.NestedSweep = ns
	}

	if faultTrials > 0 {
		faulty := base
		faulty.FaultRate = rate
		if faulty.FaultRate <= 0 {
			faulty.FaultRate = 0.01
		}
		logf("[%s] fault campaign (%d trials, rate %v)", strategy, faultTrials, faulty.FaultRate)
		fc, err := FaultCampaign(faulty, faultTrials, logf)
		if err != nil {
			return nil, fmt.Errorf("chaos: %s fault campaign: %w", strategy, err)
		}
		out.Faults = fc
	}
	return out, nil
}
