package runner

import (
	"fmt"

	"soteria/internal/config"
	"soteria/internal/faultsim"
)

// FaultSweep specifies a multi-point faultsim campaign: the same DIMM,
// trial budget and scheme set evaluated at every FIT point. The schemes
// see identical fault histories at each point.
type FaultSweep struct {
	Config config.FaultSimConfig
	// FITs are the per-chip failure rates to sweep (the paper uses
	// 1..80).
	FITs []float64
	// Trials per FIT point (0 = Config.Trials).
	Trials int
	// Seed fixes every point's fault stream.
	Seed int64
	// Conditional selects importance sampling (see faultsim.Options).
	Conditional bool
	// ECC selects the correction model.
	ECC faultsim.ECCModel
	// BlockSize overrides the deterministic block granularity
	// (0 = faultsim.DefaultBlockSize).
	BlockSize int
	// Schemes are evaluated against the shared fault stream.
	Schemes []*faultsim.Scheme
	// Label names the sweep in progress output (default "faultsim").
	Label string
}

func (s FaultSweep) options(fit float64) faultsim.Options {
	return faultsim.Options{
		Config:      s.Config,
		TotalFIT:    fit,
		Trials:      s.Trials,
		Seed:        s.Seed,
		BlockSize:   s.BlockSize,
		Conditional: s.Conditional,
		ECC:         s.ECC,
	}
}

// Point is one completed sweep point, delivered through Options.OnPoint.
// Result carries the per-scheme numbers and, when the simulator recorded
// any, the merged telemetry snapshot (Result.Telemetry).
type Point struct {
	// Label is the sweep label the point belongs to.
	Label string
	// Index is the point's position in FaultSweep.FITs.
	Index int
	// FIT is the swept per-chip failure rate.
	FIT float64
	// Result is the full point result (never nil).
	Result *faultsim.Result
}

// RunFaultSweep evaluates every FIT point of the sweep through the
// engine's worker pool. Parallelism spans the whole campaign — the pool
// draws (point, block) work units, so a single slow point cannot idle the
// other workers — and the result is bit-identical for any worker count.
func (e *Engine) RunFaultSweep(s FaultSweep) ([]*faultsim.Result, error) {
	if len(s.FITs) == 0 {
		return nil, fmt.Errorf("runner: fault sweep needs at least one FIT point")
	}
	label := s.Label
	if label == "" {
		label = "faultsim"
	}

	// Flatten the points into one (point, block) job list so the pool
	// load-balances across the whole campaign.
	type job struct{ point, block int }
	runners := make([]*faultsim.BlockRunner, len(s.FITs))
	parts := make([][]faultsim.Partial, len(s.FITs))
	var jobs []job
	for i, fit := range s.FITs {
		br, err := faultsim.NewBlockRunner(s.options(fit), s.Schemes)
		if err != nil {
			return nil, err
		}
		runners[i] = br
		parts[i] = make([]faultsim.Partial, br.NumBlocks())
		for b := 0; b < br.NumBlocks(); b++ {
			jobs = append(jobs, job{point: i, block: b})
		}
	}
	err := e.Do(label, len(jobs), func(j int) error {
		jb := jobs[j]
		parts[jb.point][jb.block] = runners[jb.point].RunBlock(jb.block)
		return nil
	})
	if err != nil {
		return nil, err
	}
	results := make([]*faultsim.Result, len(s.FITs))
	for i, fit := range s.FITs {
		results[i] = runners[i].Merge(parts[i])
		if e.opt.OnPoint != nil {
			e.opt.OnPoint(Point{Label: label, Index: i, FIT: fit, Result: results[i]})
		}
	}
	return results, nil
}

// RunFaultPoint is the single-point convenience form of RunFaultSweep.
func (e *Engine) RunFaultPoint(s FaultSweep, fit float64) (*faultsim.Result, error) {
	s.FITs = []float64{fit}
	res, err := e.RunFaultSweep(s)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
