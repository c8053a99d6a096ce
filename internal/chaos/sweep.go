package chaos

import (
	"fmt"
	"math/rand"

	"soteria/internal/memctrl"
)

// modeFlags are the cmd/chaos -mode flag values, indexed by mode.
var modeFlags = [...]string{memctrl.ModeNonSecure: "nonsecure", memctrl.ModeBaseline: "baseline",
	memctrl.ModeSRC: "src", memctrl.ModeSAC: "sac"}

// ModeFlag renders a mode as the cmd/chaos -mode flag value, which
// memctrl.ParseMode reads back.
func ModeFlag(m memctrl.Mode) string {
	if uint(m) < uint(len(modeFlags)) {
		return modeFlags[m]
	}
	return "src"
}

// crashFlag renders a repro's crash point, "" for none.
func crashFlag(k int) string {
	if k < 0 {
		return ""
	}
	return fmt.Sprintf(" -crash-at %d", k)
}

// Failure couples one failing scenario's violations with its repro command.
type Failure struct {
	Repro      string
	Violations []string
}

// CampaignResult aggregates a sweep or campaign.
type CampaignResult struct {
	// Runs is the number of scenarios executed (probe runs included).
	Runs int
	// Boundaries is the phase length the probe run discovered (workload
	// boundaries for CrashSweep, recovery boundaries for NestedSweep).
	Boundaries int
	Failures   []Failure
}

// ViolationCount sums violations across all failing scenarios.
func (c *CampaignResult) ViolationCount() int {
	n := 0
	for _, f := range c.Failures {
		n += len(f.Violations)
	}
	return n
}

func (c *CampaignResult) collect(repro string, violations []string) {
	c.Runs++
	if len(violations) > 0 {
		c.Failures = append(c.Failures, Failure{Repro: repro, Violations: violations})
	}
}

// CrashSweep first probes the workload to count its write boundaries, then
// replays it crashing at every stride-th boundary: "crash at write k,
// recover, verify, for all k". On the tenant stack that includes, when
// RotateAt is set, the boundaries inside the rotation window.
func CrashSweep(base Target, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	return sweep(base.header(), stride, logf, func(k int) (point, error) {
		cfg := base.crashingAt(k)
		res, err := Run(cfg)
		if err != nil {
			return point{}, err
		}
		return point{res.Boundaries, res.Crashed, cfg.Repro(), res.Violations}, nil
	})
}

// NestedSweep crashes the workload at base.CrashAt — when negative, at the
// middle boundary of a crash-free probe — then sweeps a second power loss
// over every stride-th boundary of the recovery itself: "crash during
// Recover, recover again".
func NestedSweep(base Config, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	base.NestedCrashAt = -1
	if base.CrashAt < 0 {
		probe, err := Run(base)
		if err != nil {
			return nil, err
		}
		base.CrashAt = probe.Boundaries / 2
	}
	header := fmt.Sprintf("nested sweep: first crash at %d, ", base.CrashAt) + "%d recovery boundaries, stride %d"
	return sweep(header, stride, logf, func(k int) (point, error) {
		cfg := base
		cfg.NestedCrashAt = k
		res, err := Run(cfg)
		if err != nil {
			return point{}, err
		}
		if !res.Crashed {
			return point{}, fmt.Errorf("chaos: crash-at %d never fired (workload has %d boundaries)", base.CrashAt, res.Boundaries)
		}
		return point{res.RecoveryBoundaries, true, cfg.Repro(), res.Violations}, nil
	})
}

// crashPointFor derives a trial's crash boundary from its seed alone, so a
// campaign trial is reproducible as a plain single run with -crash-at.
func crashPointFor(seed int64, boundaries int) int {
	return int(rand.New(rand.NewSource(seed ^ 0xc4a5b0)).Int63n(int64(boundaries)))
}

// campaign runs trials seeded base.Seed+t, each a crash-free probe (without
// shadow faults, which land only at a crash) and a run crashing at a
// seed-derived boundary of it; trial reports each crashing run.
func campaign(base Config, trials int, trial func(t int, cfg Config, boundaries int, res *Result)) (*CampaignResult, error) {
	out := &CampaignResult{}
	for t := 0; t < trials; t++ {
		cfg := base
		cfg.Seed = base.Seed + int64(t)
		cfg.CrashAt, cfg.NestedCrashAt = -1, -1
		probe := cfg
		probe.ShadowFaults = 0
		pres, err := Run(probe)
		if err != nil {
			return nil, err
		}
		out.collect(probe.Repro(), pres.Violations)
		if pres.Boundaries == 0 {
			continue
		}
		cfg.CrashAt = crashPointFor(cfg.Seed, pres.Boundaries)
		res, err := Run(cfg)
		if err != nil {
			return nil, err
		}
		out.collect(cfg.Repro(), res.Violations)
		trial(t, cfg, pres.Boundaries, res)
	}
	return out, nil
}

// FaultCampaign layers a seeded probabilistic device-fault schedule on
// randomized crash points. Reported data loss is legal under faults;
// silent corruption or a non-PowerLoss panic is a violation.
func FaultCampaign(base Config, trials int, logf func(string, ...any)) (*CampaignResult, error) {
	if base.FaultRate <= 0 {
		return nil, fmt.Errorf("chaos: fault campaign needs FaultRate > 0")
	}
	logf = orNop(logf)
	return campaign(base, trials, func(t int, cfg Config, boundaries int, res *Result) {
		logf("fault trial %d: seed %d, crash-at %d/%d, %d faults, %d op errors, %d violations",
			t, cfg.Seed, cfg.CrashAt, boundaries, len(res.Faults), res.OpErrors, len(res.Violations))
	})
}

// ShadowCampaign crashes at a seed-derived boundary and kills one half of
// several in-use shadow entries before recovery. With half repair enabled
// recovery must lose nothing (the duplicate absorbs the fault); with
// BreakHalfRepair set the harness must catch the resulting loss.
func ShadowCampaign(base Config, trials int, logf func(string, ...any)) (*CampaignResult, error) {
	if base.ShadowFaults <= 0 {
		base.ShadowFaults = 2
	}
	logf = orNop(logf)
	return campaign(base, trials, func(t int, cfg Config, boundaries int, res *Result) {
		half := uint64(0)
		if res.Report != nil {
			half = res.Report.Shards[0].HalfRepairs
		}
		logf("shadow trial %d: seed %d, crash-at %d/%d, faults [%v], %d half repairs, %d violations",
			t, cfg.Seed, cfg.CrashAt, boundaries, res.ShadowFaultNotes, half, len(res.Violations))
	})
}
