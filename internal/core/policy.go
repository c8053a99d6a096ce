// Package core implements Soteria itself: the metadata cloning policies
// (SRC and SAC, Table 2), the clone-aware fault-handling pipeline (Fig 9),
// and the unverifiable-data accounting behind the UDR metric (§5.3).
//
// Everything here is deliberately decoupled from the module's ECC — the
// central design argument of the paper (§3.1): reliability of security
// metadata is the memory controller's job, implemented with lazily written
// duplicates, not with a stronger code in the DIMM.
package core

import (
	"fmt"

	"soteria/internal/itree"
)

// ClonePolicy decides how many copies (original included) each tree level
// keeps. Depth 1 means no clones.
type ClonePolicy struct {
	// Name identifies the policy in reports ("baseline", "SRC", "SAC").
	Name string
	// depthFor returns the copy count for `level` in a tree whose
	// highest stored level is `top`.
	depthFor func(level, top int) int
}

// Depth returns the copy count for one level.
func (p ClonePolicy) Depth(level, top int) int {
	if p.depthFor == nil {
		return 1
	}
	d := p.depthFor(level, top)
	if d < 1 {
		return 1
	}
	if d > itree.MaxCloneDepth {
		return itree.MaxCloneDepth
	}
	return d
}

// Depths materializes the per-level depth table for a tree with `top`
// stored levels (index 0 = level 1).
func (p ClonePolicy) Depths(top int) []int {
	out := make([]int, top)
	for i := range out {
		out[i] = p.Depth(i+1, top)
	}
	return out
}

// Layout builds the NVM address map params describes with this policy's
// clone depth at every stored level; params.CloneDepths is ignored. It is
// the one place a scheme's layout is decided: the controller, the fault
// simulator and the expected-loss model all build theirs here.
func (p ClonePolicy) Layout(params itree.Params) (*itree.Layout, error) {
	top, err := itree.StoredLevels(params)
	if err != nil {
		return nil, err
	}
	params.CloneDepths = p.Depths(top)
	return itree.NewLayout(params)
}

// Baseline is the no-cloning policy (the paper's "Secure Baseline").
func Baseline() ClonePolicy {
	return ClonePolicy{Name: "baseline"}
}

// SRC is Soteria Relaxed Cloning: every level keeps exactly one additional
// clone (Table 2, SRC row).
func SRC() ClonePolicy {
	return ClonePolicy{
		Name:     "SRC",
		depthFor: func(level, top int) int { return 2 },
	}
}

// SAC is Soteria Aggressive Cloning. Table 2 gives the depths for a
// nine-level tree: 2,2,3,3,4,4,4,4,5. The generalization below reproduces
// that row exactly for top=9 and scales sensibly for other tree heights:
// the two leaf-most levels (which produce >10% of evictions, Fig 4) stay at
// depth 2, the next two (1-10% of evictions) get one extra clone, deeper
// levels get two, and the top stored level — the root's immediate children,
// each covering 1/arity of all memory — gets the WPQ-capped maximum of 5.
func SAC() ClonePolicy {
	return ClonePolicy{
		Name: "SAC",
		depthFor: func(level, top int) int {
			switch {
			case level >= top:
				return 5
			case level <= 2:
				return 2
			case level <= 4:
				return 3
			default:
				return 4
			}
		},
	}
}

// Custom builds a policy from an explicit per-level depth table (index 0 =
// level 1); levels beyond the table reuse its last entry.
func Custom(name string, depths []int) (ClonePolicy, error) {
	if len(depths) == 0 {
		return ClonePolicy{}, fmt.Errorf("core: custom policy needs at least one depth")
	}
	for i, d := range depths {
		if d < 1 || d > itree.MaxCloneDepth {
			return ClonePolicy{}, fmt.Errorf("core: depth %d at level %d outside [1,%d]", d, i+1, itree.MaxCloneDepth)
		}
	}
	tbl := append([]int(nil), depths...)
	return ClonePolicy{
		Name: name,
		depthFor: func(level, top int) int {
			if level-1 < len(tbl) {
				return tbl[level-1]
			}
			return tbl[len(tbl)-1]
		},
	}, nil
}

// Table2 returns the paper's Table 2: the SRC and SAC cloning depths for a
// nine-level (root excluded) tree covering up to 1 TB.
func Table2() (src, sac []int) {
	return SRC().Depths(9), SAC().Depths(9)
}
