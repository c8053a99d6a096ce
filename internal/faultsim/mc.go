package faultsim

import (
	"fmt"
	"math"
	"math/rand"

	"soteria/internal/config"
	"soteria/internal/telemetry"
)

// DefaultBlockSize is the number of trials per deterministic RNG block
// when Options.BlockSize is zero. Each block draws from its own RNG
// stream derived from the master seed, so results are bit-identical for
// any worker count.
const DefaultBlockSize = 4096

// Options configures a Monte Carlo run.
type Options struct {
	Config config.FaultSimConfig
	// TotalFIT is the per-chip failure rate (the paper sweeps 1..80).
	TotalFIT float64
	// Trials overrides Config.Trials when non-zero.
	Trials int
	// Seed makes the run reproducible.
	Seed int64
	// BlockSize is the trials-per-block granularity of the deterministic
	// schedule (default DefaultBlockSize). Results depend on it (it
	// defines the RNG streams), so treat it as part of the seed.
	BlockSize int
	// Conditional enables importance sampling: trials are drawn
	// conditioned on at least two faults arriving (the only trials that
	// can produce Chipkill-uncorrectable errors) and every loss is
	// weighted by P(N >= 2). This gives the same expectation as plain
	// sampling with orders of magnitude fewer wasted trials — at FIT 80
	// a 16 GB DIMM sees ~0.06 faults per five-year lifetime, so double
	// faults are ~1e-6 of raw trials.
	Conditional bool
	// ECC selects the correction model (default Chipkill).
	ECC ECCModel
}

// ECCModel is the module-level error correction the Monte Carlo assumes.
type ECCModel int

// ECC models for the §3.1/§6.2 stronger-ECC comparison.
const (
	// ECCChipkill corrects any single-chip fault per codeword
	// (Table 4's repair mechanism).
	ECCChipkill ECCModel = iota
	// ECCMultiBit is Chipkill plus stronger multi-bit correction (BCH
	// style, the §6.2 "stronger code" suggestion): overlaps of two
	// *bit/word-granularity* faults are corrected, but structured
	// faults (row/column/bank) still present whole-symbol errors on two
	// chips and remain uncorrectable.
	ECCMultiBit
	// ECCDoubleChipkill corrects two simultaneous chip-granular symbol
	// errors per codeword (an expensive hypothetical upper bound).
	ECCDoubleChipkill
)

func (m ECCModel) String() string {
	return [...]string{"chipkill", "chipkill+multibit", "double-chipkill"}[m]
}

// appendRects appends the uncorrectable beats under the model to buf and
// returns the extended slice (buf may be nil; reusing it across trials
// keeps the hot loop allocation-free).
func (m ECCModel) appendRects(buf []Rect, d config.DIMMConfig, faults []Fault) []Rect {
	switch m {
	case ECCDoubleChipkill:
		return appendUncorrectableK(buf, d, faults, 2)
	case ECCMultiBit:
		// Pairwise overlaps, dropping bit/word x bit/word coincidences
		// (a couple of corrupt bits per codeword: within multi-bit
		// correction strength).
		for i := 0; i < len(faults); i++ {
			for j := i + 1; j < len(faults); j++ {
				a, b := &faults[i], &faults[j]
				if a.Chip == b.Chip || a.Chip/d.ChipsPerRank != b.Chip/d.ChipsPerRank || !overlapTime(a, b) {
					continue
				}
				if smallGran(a.Gran) && smallGran(b.Gran) {
					continue
				}
				if r, ok := intersect(a.rect(d), b.rect(d)); ok {
					buf = append(buf, r)
				}
			}
		}
		return buf
	default:
		return appendUncorrectableK(buf, d, faults, 1)
	}
}

// rectsFor computes the uncorrectable beats under the model.
func (m ECCModel) rectsFor(d config.DIMMConfig, faults []Fault) []Rect {
	return m.appendRects(nil, d, faults)
}

func smallGran(g Granularity) bool { return g == GranBit || g == GranWord }

// minFaultsFor returns the smallest fault count that can defeat the model.
func (m ECCModel) minFaultsFor() int {
	if m == ECCDoubleChipkill {
		return 3
	}
	return 2
}

// SchemeResult accumulates per-scheme losses over all trials. Loss sums
// are expectation-weighted bytes (equal to raw sums when Conditional is
// off).
type SchemeResult struct {
	Name string
	// DataBytes is the scheme's protected data capacity.
	DataBytes uint64
	// TrialsWithUE counts (conditional) trials with uncorrectable loss.
	TrialsWithUE int
	// TrialsWithUnv counts trials that lost verifiability of any data.
	TrialsWithUnv int
	// TotalLErr / TotalLUnv are the weighted per-lifetime expected loss
	// sums in bytes.
	TotalLErr float64
	TotalLUnv float64
	// SumLUnvSq is the sum of squared per-trial weighted unverifiable
	// losses, kept so the UDR estimator carries a standard error
	// (UDRSigma) — the statistical cross-check between importance
	// sampling and plain sampling depends on it.
	SumLUnvSq float64
}

// UDR returns the Unverifiable Data Ratio: expected unverifiable bytes per
// byte of memory over the simulated lifetime (§5.3).
func (r SchemeResult) UDR(trials int) float64 {
	if trials == 0 || r.DataBytes == 0 {
		return 0
	}
	return r.TotalLUnv / (float64(trials) * float64(r.DataBytes))
}

// UDRSigma returns the standard error of UDR(trials), estimated from the
// per-trial second moment of the (weighted) unverifiable-loss samples.
func (r SchemeResult) UDRSigma(trials int) float64 {
	if trials == 0 || r.DataBytes == 0 {
		return 0
	}
	n := float64(trials)
	mean := r.TotalLUnv / n
	variance := (r.SumLUnvSq/n - mean*mean) / n
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance) / float64(r.DataBytes)
}

// ErrorRatio is the analogous ratio for direct data loss (L_error).
func (r SchemeResult) ErrorRatio(trials int) float64 {
	if trials == 0 || r.DataBytes == 0 {
		return 0
	}
	return r.TotalLErr / (float64(trials) * float64(r.DataBytes))
}

// Result is a full Monte Carlo outcome.
type Result struct {
	Trials   int
	TotalFIT float64
	Schemes  []SchemeResult
	// FaultTrials counts trials that saw at least one fault at all.
	FaultTrials int
	// Weight is the importance weight applied per conditional trial
	// (1 when Conditional is off).
	Weight float64
	// Telemetry is the per-point metric snapshot assembled by Merge.
	// Every value is an integer count folded in block order, so it is
	// bit-identical for any worker count, and it rides along when the
	// Result is JSON-cached on disk.
	Telemetry *telemetry.Snapshot `json:",omitempty"`
}

// poisson draws a Poisson(lambda) variate (Knuth's method; lambda is small
// in every use here).
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1<<20 {
			panic("faultsim: poisson runaway (lambda too large)")
		}
	}
}

// poissonAtLeast2 draws from Poisson(lambda) conditioned on the outcome
// being >= 2, by inverse-CDF over the truncated distribution.
func poissonAtLeast2(rng *rand.Rand, lambda float64) int {
	p0 := math.Exp(-lambda)
	p1 := p0 * lambda
	norm := 1 - p0 - p1
	if norm <= 0 {
		return 2
	}
	u := rng.Float64() * norm
	k := 2
	pk := p1 * lambda / 2
	for {
		if u < pk || k > 1000 {
			return k
		}
		u -= pk
		k++
		pk *= lambda / float64(k)
	}
}

// modeDist flattens a mode table into a sampleable (granularity, transient)
// distribution.
type modeDist struct {
	grans      []Granularity
	transients []bool
	cum        []float64 // cumulative rates
	total      float64
}

func newModeDist(modes []Mode) *modeDist {
	n := 0
	for _, m := range modes {
		if m.TransientFIT > 0 {
			n++
		}
		if m.PermanentFIT > 0 {
			n++
		}
	}
	d := &modeDist{
		grans:      make([]Granularity, 0, n),
		transients: make([]bool, 0, n),
		cum:        make([]float64, 0, n),
	}
	for _, m := range modes {
		for _, k := range []struct {
			fit float64
			tr  bool
		}{{m.TransientFIT, true}, {m.PermanentFIT, false}} {
			if k.fit <= 0 {
				continue
			}
			d.total += k.fit
			d.grans = append(d.grans, m.Gran)
			d.transients = append(d.transients, k.tr)
			d.cum = append(d.cum, d.total)
		}
	}
	return d
}

func (d *modeDist) sample(rng *rand.Rand) (Granularity, bool) {
	u := rng.Float64() * d.total
	for i, c := range d.cum {
		if u < c {
			return d.grans[i], d.transients[i]
		}
	}
	return d.grans[len(d.grans)-1], d.transients[len(d.transients)-1]
}

// sampleN places n fault events at uniform times with mode-proportional
// granularities, appending to buf (which may be nil).
func sampleN(rng *rand.Rand, cfg config.FaultSimConfig, dist *modeDist, n int, buf []Fault) []Fault {
	hours := cfg.Years * 365 * 24
	scrub := cfg.ScrubInterval.Hours()
	for i := 0; i < n; i++ {
		gran, transient := dist.sample(rng)
		t := rng.Float64() * hours
		end := hours + 1
		if transient && scrub > 0 {
			end = math.Min(t+scrub, hours+1)
		}
		buf = append(buf, sampleFault(rng, cfg.DIMM, gran, transient, t, end)...)
	}
	return buf
}

// SampleTrial draws one unconditioned trial's fault set over the configured
// lifetime.
func SampleTrial(rng *rand.Rand, cfg config.FaultSimConfig, modes []Mode) []Fault {
	return SampleTrialInto(rng, cfg, modes, nil)
}

// SampleTrialInto is SampleTrial with an explicit reusable buffer: the trial's
// faults are appended into buf[:0] (which may be nil), the same reuse
// discipline sampleN gives the block runner, so per-trial callers in a loop
// stop re-allocating the fault slice.
func SampleTrialInto(rng *rand.Rand, cfg config.FaultSimConfig, modes []Mode, buf []Fault) []Fault {
	dist := newModeDist(modes)
	hours := cfg.Years * 365 * 24
	lambda := dist.total * 1e-9 * hours * float64(cfg.DIMM.Chips)
	return sampleN(rng, cfg, dist, poisson(rng, lambda), buf[:0])
}

// blockSeed derives the RNG seed of one trial block from the master seed
// (splitmix64 finalizer, so adjacent blocks get decorrelated streams).
func blockSeed(seed int64, block int) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*uint64(block+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// faultHistBounds are the upper bounds of the faults-per-trial histogram
// (plus one overflow bucket). Fixed at compile time so Partial stays a
// flat, mergeable value.
var faultHistBounds = [...]uint64{0, 1, 2, 3, 4, 6, 8, 16}

// faultHistBucket returns the bucket index for a fault count.
func faultHistBucket(n int) int {
	for i, b := range faultHistBounds[:] {
		if uint64(n) <= b {
			return i
		}
	}
	return len(faultHistBounds)
}

// Partial is the accumulated outcome of one trial block. Partials merge in
// block order, which is what keeps float sums bit-identical regardless of
// how blocks were scheduled across workers.
type Partial struct {
	Schemes     []SchemeResult
	FaultTrials int
	// Telemetry accumulators — integer counts only, merged in block
	// order like everything else.
	Trials     int    // trials executed in this block
	Faults     uint64 // total fault events drawn
	UETrials   int    // trials with >= 1 uncorrectable beat under the ECC model
	FaultsHist [len(faultHistBounds) + 1]uint64
}

// BlockRunner executes a Monte Carlo run as a sequence of independently
// schedulable, deterministic trial blocks. Run drives it block by block;
// the runner package drives many BlockRunners (one per sweep point)
// through a single shared worker pool.
type BlockRunner struct {
	opt     Options
	schemes []*Scheme
	dist    *modeDist
	lambda  float64
	weight  float64
	trials  int
	block   int
}

// NewBlockRunner validates the options and precomputes the fault
// distribution shared by all blocks.
func NewBlockRunner(opt Options, schemes []*Scheme) (*BlockRunner, error) {
	trials := opt.Trials
	if trials == 0 {
		trials = opt.Config.Trials
	}
	if trials <= 0 {
		return nil, fmt.Errorf("faultsim: trials must be positive")
	}
	if err := opt.Config.DIMM.Validate(); err != nil {
		return nil, err
	}
	block := opt.BlockSize
	if block <= 0 {
		block = DefaultBlockSize
	}
	dist := newModeDist(ScaledModes(HopperModes(), opt.TotalFIT))
	hours := opt.Config.Years * 365 * 24
	lambda := dist.total * 1e-9 * hours * float64(opt.Config.DIMM.Chips)
	weight := 1.0
	if opt.Conditional {
		// P(N >= 2): the probability mass the conditional trials
		// represent.
		weight = 1 - math.Exp(-lambda)*(1+lambda)
	}
	return &BlockRunner{
		opt: opt, schemes: schemes, dist: dist,
		lambda: lambda, weight: weight, trials: trials, block: block,
	}, nil
}

// Trials returns the effective trial count.
func (br *BlockRunner) Trials() int { return br.trials }

// NumBlocks returns the number of trial blocks.
func (br *BlockRunner) NumBlocks() int { return (br.trials + br.block - 1) / br.block }

// BlockTrials returns the number of trials in block b (the last block may
// be short).
func (br *BlockRunner) BlockTrials(b int) int {
	n := br.block
	if rem := br.trials - b*br.block; rem < n {
		n = rem
	}
	return n
}

// RunBlock executes block b from its own RNG stream and returns its
// partial sums. It is safe to call concurrently for distinct blocks, and
// the result depends only on (Options, schemes, b).
func (br *BlockRunner) RunBlock(b int) Partial {
	rng := rand.New(rand.NewSource(blockSeed(br.opt.Seed, b)))
	p := Partial{Schemes: make([]SchemeResult, len(br.schemes))}
	minFaults := br.opt.ECC.minFaultsFor()
	// Scratch buffers live for the whole block: the per-trial fault and
	// rectangle sets reuse them instead of re-allocating ~2x per trial.
	var faults []Fault
	var rects []Rect
	n := br.BlockTrials(b)
	p.Trials = n
	for t := 0; t < n; t++ {
		var k int
		if br.opt.Conditional {
			k = poissonAtLeast2(rng, br.lambda)
		} else {
			k = poisson(rng, br.lambda)
		}
		faults = sampleN(rng, br.opt.Config, br.dist, k, faults[:0])
		p.Faults += uint64(len(faults))
		p.FaultsHist[faultHistBucket(len(faults))]++
		if len(faults) > 0 {
			p.FaultTrials++
		}
		if len(faults) < minFaults {
			continue // within the code's correction capability
		}
		rects = br.opt.ECC.appendRects(rects[:0], br.opt.Config.DIMM, faults)
		if len(rects) == 0 {
			continue
		}
		p.UETrials++
		for i, s := range br.schemes {
			lErr, lUnv := s.Loss(br.opt.Config.DIMM, rects)
			sr := &p.Schemes[i]
			if lErr > 0 || lUnv > 0 {
				sr.TrialsWithUE++
			}
			if lUnv > 0 {
				sr.TrialsWithUnv++
			}
			wUnv := br.weight * float64(lUnv)
			sr.TotalLErr += br.weight * float64(lErr)
			sr.TotalLUnv += wUnv
			sr.SumLUnvSq += wUnv * wUnv
		}
	}
	return p
}

// Merge folds block partials (indexed by block) into a Result. The fold
// is sequential in block order, so the float sums do not depend on the
// schedule that produced the partials.
func (br *BlockRunner) Merge(parts []Partial) *Result {
	res := &Result{Trials: br.trials, TotalFIT: br.opt.TotalFIT, Weight: br.weight}
	res.Schemes = make([]SchemeResult, len(br.schemes))
	for i, s := range br.schemes {
		res.Schemes[i] = SchemeResult{Name: s.Name, DataBytes: s.Layout.DataBytes}
	}
	var trials, ueTrials int
	var faultsDrawn uint64
	var hist [len(faultHistBounds) + 1]uint64
	for _, p := range parts {
		res.FaultTrials += p.FaultTrials
		trials += p.Trials
		ueTrials += p.UETrials
		faultsDrawn += p.Faults
		for i := range hist {
			hist[i] += p.FaultsHist[i]
		}
		for i := range p.Schemes {
			res.Schemes[i].TrialsWithUE += p.Schemes[i].TrialsWithUE
			res.Schemes[i].TrialsWithUnv += p.Schemes[i].TrialsWithUnv
			res.Schemes[i].TotalLErr += p.Schemes[i].TotalLErr
			res.Schemes[i].TotalLUnv += p.Schemes[i].TotalLUnv
			res.Schemes[i].SumLUnvSq += p.Schemes[i].SumLUnvSq
		}
	}
	res.Telemetry = br.telemetrySnapshot(res, trials, ueTrials, faultsDrawn, &hist)
	return res
}

// telemetrySnapshot assembles the per-point metric snapshot from the
// block-order fold. Weighted float sums stay out of it deliberately: the
// snapshot holds only integer counts, so its JSON form is byte-identical
// across runs and worker counts.
func (br *BlockRunner) telemetrySnapshot(res *Result, trials, ueTrials int, faults uint64, hist *[len(faultHistBounds) + 1]uint64) *telemetry.Snapshot {
	s := &telemetry.Snapshot{
		Counters: map[string]uint64{
			"faultsim_trials_total":       uint64(trials),
			"faultsim_fault_trials_total": uint64(res.FaultTrials),
			"faultsim_ue_trials_total":    uint64(ueTrials),
			"faultsim_faults_total":       faults,
		},
		Histograms: map[string]telemetry.HistogramSnapshot{},
	}
	var count, sum uint64
	for i, c := range hist {
		count += c
		if i < len(faultHistBounds) {
			sum += c * faultHistBounds[i]
		}
	}
	s.Histograms["faultsim_faults_per_trial"] = telemetry.HistogramSnapshot{
		Bounds: append([]uint64(nil), faultHistBounds[:]...),
		Counts: append([]uint64(nil), hist[:]...),
		Count:  count,
		Sum:    sum,
	}
	for i := range res.Schemes {
		sr := &res.Schemes[i]
		s.Counters["faultsim_"+promSafe(sr.Name)+"_trials_with_ue_total"] = uint64(sr.TrialsWithUE)
		s.Counters["faultsim_"+promSafe(sr.Name)+"_trials_with_unv_total"] = uint64(sr.TrialsWithUnv)
	}
	return s
}

// promSafe lowercases and replaces non-identifier runes so scheme names
// ("Soteria-SRC") become metric-name safe ("soteria_src").
func promSafe(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Run executes the Monte Carlo simulation for every scheme over a shared
// fault stream (schemes see identical fault histories, like the paper's
// common FaultSim traces), one block after another. It is the sequential
// reference for runner.Engine, which schedules the same blocks across a
// worker pool and merges them in the same block order.
func Run(opt Options, schemes []*Scheme) (*Result, error) {
	br, err := NewBlockRunner(opt, schemes)
	if err != nil {
		return nil, err
	}
	parts := make([]Partial, br.NumBlocks())
	for b := range parts {
		parts[b] = br.RunBlock(b)
	}
	return br.Merge(parts), nil
}
