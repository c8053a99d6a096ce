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

// pointKey builds the cache key of one FIT point. Everything that can
// change the numbers is hashed: the full fault-sim configuration, the
// sampling options, and each scheme's recomputable level and complete
// layout (which encodes the clone policy, shadow sizing and address map).
func (s FaultSweep) pointKey(fit float64) string {
	parts := []interface{}{s.Config, fit, s.Trials, s.Seed, s.Conditional, s.ECC, s.BlockSize}
	for _, sc := range s.Schemes {
		parts = append(parts, sc.Name, sc.Secure, sc.RecomputableAbove, *sc.Layout)
	}
	return cacheKey("fsim", parts...)
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
	// Cached reports that the point was served from the on-disk cache
	// without running any trials.
	Cached bool
	// Result is the full point result (never nil).
	Result *faultsim.Result
}

// RunFaultSweep evaluates every FIT point of the sweep through the
// engine's worker pool. Parallelism spans the whole campaign — the pool
// draws (point, block) work units, so a single slow point cannot idle the
// other workers — and the result is bit-identical for any worker count.
// Points whose cache entry exists are served from disk without running a
// single trial.
func (e *Engine) RunFaultSweep(s FaultSweep) ([]*faultsim.Result, error) {
	if len(s.FITs) == 0 {
		return nil, fmt.Errorf("runner: fault sweep needs at least one FIT point")
	}
	label := s.Label
	if label == "" {
		label = "faultsim"
	}

	results := make([]*faultsim.Result, len(s.FITs))
	keys := make([]string, len(s.FITs))
	fromCache := make([]bool, len(s.FITs))
	var pending []int
	for i, fit := range s.FITs {
		keys[i] = s.pointKey(fit)
		var cached faultsim.Result
		if e.cacheLoad(keys[i], &cached, func() bool {
			return cached.Trials > 0 && len(cached.Schemes) > 0
		}) {
			results[i] = &cached
			fromCache[i] = true
			continue
		}
		pending = append(pending, i)
	}
	emitPoints := func() {
		if e.opt.OnPoint == nil {
			return
		}
		for i, fit := range s.FITs {
			e.opt.OnPoint(Point{
				Label: label, Index: i, FIT: fit,
				Cached: fromCache[i], Result: results[i],
			})
		}
	}
	if len(pending) == 0 {
		emitPoints()
		return results, nil
	}

	// Flatten the pending points into one (point, block) job list so the
	// pool load-balances across the whole campaign.
	type job struct{ point, block int }
	runners := make([]*faultsim.BlockRunner, len(s.FITs))
	parts := make([][]faultsim.Partial, len(s.FITs))
	var jobs []job
	for _, i := range pending {
		br, err := faultsim.NewBlockRunner(s.options(s.FITs[i]), s.Schemes)
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
	for _, i := range pending {
		results[i] = runners[i].Merge(parts[i])
		e.cacheStore(keys[i], results[i])
	}
	emitPoints()
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
