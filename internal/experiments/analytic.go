package experiments

// The closed-form analyses in the paper that need no Monte Carlo
// simulation: the expected-loss model behind Fig 3 and the motivation of
// §2.7 (footnote 2: E[X] = sum_i X_i * P(X_i)), the MTBF sanity check of
// §4, and the resilience-ratio summaries of §5.3.

import (
	"fmt"

	"soteria/internal/core"
	"soteria/internal/itree"
	"soteria/internal/stats"
)

// ExpectedLossModel captures the Fig 3 setting: a memory of a given size,
// optionally integrity-protected, in which some number of uncorrectable
// errors land uniformly at random over the occupied storage (data plus, for
// the secure memory, counters and tree nodes).
type ExpectedLossModel struct {
	// Layout is the memory's address map. Its clone depths model
	// Soteria: a level-i node only loses its coverage if all copies are
	// hit, which for a handful of uniform errors is negligible — exactly
	// Soteria's argument.
	Layout *itree.Layout
	// Secure selects whether metadata exists (and hence whether errors
	// can amplify into unverifiable regions).
	Secure bool
}

// NewExpectedLossModel builds the model for a memory of dataBytes with the
// paper's 64-ary counters and 8-ary tree, cloned as policy says.
func NewExpectedLossModel(dataBytes uint64, secure bool, policy core.ClonePolicy) (*ExpectedLossModel, error) {
	lay, err := policy.Layout(itree.Params{
		DataBytes:    dataBytes,
		CounterArity: 64,
		TreeArity:    8,
	})
	if err != nil {
		return nil, err
	}
	return &ExpectedLossModel{Layout: lay, Secure: secure}, nil
}

// totalBytes is the storage errors can land in.
func (m *ExpectedLossModel) totalBytes() float64 {
	t := float64(m.Layout.DataBytes)
	if m.Secure {
		for i, li := range m.Layout.Levels {
			t += float64(li.Nodes*itree.BlockSize) * float64(m.Layout.CloneDepths[i])
		}
	}
	return t
}

// ExpectedLossBytes returns E[lost or unverifiable data] for `errors`
// uniformly placed uncorrectable errors, the quantity plotted in Fig 3.
//
// Each error in the data region loses one 64-byte block. Each error in a
// level-i node renders that node's coverage unverifiable — and because
// every level's nodes jointly cover the whole memory, each level
// contributes the same expected loss as the data region itself, making the
// secure memory roughly (1 + levels)x less resilient (§2.7: "the expected
// amount of data lost ... is roughly n x that of the non-secure memory
// system, where n is the number of levels").
func (m *ExpectedLossModel) ExpectedLossBytes(errors int) float64 {
	if errors <= 0 {
		return 0
	}
	total := m.totalBytes()
	// P(error hits the data region) * 64 bytes lost.
	perError := float64(m.Layout.DataBytes) / total * itree.BlockSize
	if m.Secure {
		for i, li := range m.Layout.Levels {
			depth := m.Layout.CloneDepths[i]
			pNodeHit := float64(itree.BlockSize) / total
			if depth == 1 {
				// Expected loss from this level: nodes * P(node hit) * coverage.
				perError += float64(li.Nodes) * pNodeHit * float64(li.CoverBytes)
				continue
			}
			// With d copies, a single error cannot kill a node; the
			// leading term needs `depth` of the `errors` to land on
			// the same node's copies. For the error counts of Fig 3
			// this is negligible but we keep the exact leading term:
			// P(all d copies hit by specific errors) summed over
			// combinations, divided back by `errors` (the caller
			// multiplies by it).
			if errors >= depth {
				comb := combinations(errors, depth)
				pAll := 1.0
				for k := 0; k < depth; k++ {
					pAll *= pNodeHit
				}
				perError += float64(li.Nodes) * comb * pAll * float64(li.CoverBytes) / float64(errors)
			}
		}
	}
	return float64(errors) * perError
}

func combinations(n, k int) float64 {
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// AmplificationFactor returns the ratio of expected loss in the secure
// memory to the non-secure memory — Fig 3's headline "12x" for a 4 TB
// system.
func AmplificationFactor(dataBytes uint64) (float64, error) {
	sec, err := NewExpectedLossModel(dataBytes, true, core.Baseline())
	if err != nil {
		return 0, err
	}
	non, err := NewExpectedLossModel(dataBytes, false, core.Baseline())
	if err != nil {
		return 0, err
	}
	return sec.ExpectedLossBytes(1) / non.ExpectedLossBytes(1), nil
}

// SystemMTBF returns the mean time between failures, in hours, for a
// cluster of `nodes` nodes with `dimmsPerNode` DIMMs of `chipsPerDIMM`
// devices each, at the given per-chip FIT rate — §4's sanity check against
// the field-study MTBFs (694 h at FIT 1 down to 8.6 h at FIT 80 for the
// 20k-node system).
func SystemMTBF(fitPerChip float64, nodes, dimmsPerNode, chipsPerDIMM int) (float64, error) {
	devices := float64(nodes) * float64(dimmsPerNode) * float64(chipsPerDIMM)
	rate := fitPerChip * devices // failures per 1e9 hours
	if rate <= 0 {
		return 0, fmt.Errorf("experiments: non-positive failure rate")
	}
	return 1e9 / rate, nil
}

// PaperCluster are the §4 constants: 20k nodes, 4 DIMMs each, 18 chips per
// DIMM.
const (
	PaperClusterNodes = 20000
	PaperClusterDIMMs = 4
	PaperClusterChips = 18
)

// ResilienceGain summarizes Fig 11's headline numbers: the geometric mean,
// across FIT points, of baselineUDR / schemeUDR. Points where the scheme
// saw zero loss are folded in using the smallest resolvable UDR
// (lossFloor), mirroring how the paper reports "no data loss observed" at
// low FIT.
func ResilienceGain(baselineUDR, schemeUDR []float64, lossFloor float64) float64 {
	if len(baselineUDR) != len(schemeUDR) || len(baselineUDR) == 0 {
		return 0
	}
	ratios := make([]float64, 0, len(baselineUDR))
	for i := range baselineUDR {
		b, s := baselineUDR[i], schemeUDR[i]
		if b <= 0 {
			continue // nothing to compare at this FIT point
		}
		if s <= 0 {
			s = lossFloor
		}
		ratios = append(ratios, b/s)
	}
	return stats.GeoMean(ratios)
}
