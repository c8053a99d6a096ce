package benchparse

import (
	"fmt"
	"strings"
)

// Delta is one benchmark's movement between a baseline report and a new
// run, compared on a single metric (normally ns/op).
type Delta struct {
	Name  string  `json:"name"`
	Procs int     `json:"procs"`
	Unit  string  `json:"unit"`
	Old   float64 `json:"old"`
	New   float64 `json:"new"`
	// Ratio is New/Old (1.0 = unchanged). It is 0 when either side is
	// missing or the baseline value is 0.
	Ratio float64 `json:"ratio"`
	// OnlyOld/OnlyNew mark benchmarks present in just one report; such
	// deltas carry no ratio and are never regressions, but a gate may
	// still want to surface them (a vanished benchmark usually means a
	// renamed or deleted gate).
	OnlyOld bool `json:"only_old,omitempty"`
	OnlyNew bool `json:"only_new,omitempty"`
}

// Regressed reports whether this delta is a regression beyond tolerance:
// the new value exceeds the old by more than tolerance (0.20 = 20%).
// Benchmarks present in only one report never regress — Compare's caller
// decides separately how to treat those.
func (d Delta) Regressed(tolerance float64) bool {
	return !d.OnlyOld && !d.OnlyNew && d.Old > 0 && d.Ratio > 1+tolerance
}

// key identifies a benchmark across reports. Procs participates because
// Benchmark-8 and Benchmark-4 lines measure different configurations.
type key struct {
	name  string
	procs int
}

// Compare matches benchmarks between two reports by (name, procs) and
// returns one Delta per benchmark carrying the given metric in either
// report, in baseline order with new-only entries appended. Benchmarks
// that report the metric on one side only are treated as present on that
// side only (a benchmark that stopped reporting ns/op is as suspicious
// as one that vanished).
func Compare(old, new *Report, unit string) []Delta {
	newVals := make(map[key]float64, len(new.Benchmarks))
	newOrder := make([]key, 0, len(new.Benchmarks))
	for _, b := range new.Benchmarks {
		if v, ok := b.Metric(unit); ok {
			k := key{b.Name, b.Procs}
			if _, dup := newVals[k]; !dup {
				newVals[k] = v
				newOrder = append(newOrder, k)
			}
		}
	}
	var deltas []Delta
	seen := make(map[key]bool)
	for _, b := range old.Benchmarks {
		ov, ok := b.Metric(unit)
		if !ok {
			continue
		}
		k := key{b.Name, b.Procs}
		if seen[k] {
			continue
		}
		seen[k] = true
		d := Delta{Name: b.Name, Procs: b.Procs, Unit: unit, Old: ov}
		if nv, ok := newVals[k]; ok {
			d.New = nv
			if ov > 0 {
				d.Ratio = nv / ov
			}
		} else {
			d.OnlyOld = true
		}
		deltas = append(deltas, d)
	}
	for _, k := range newOrder {
		if !seen[k] {
			deltas = append(deltas, Delta{
				Name: k.name, Procs: k.procs, Unit: unit,
				New: newVals[k], OnlyNew: true,
			})
		}
	}
	return deltas
}

// Matched counts the deltas present in both reports and the deltas the
// baseline holds. matched == 0 with baseline > 0 means the two runs share
// no (name, procs) pair — typically a run at a different GOMAXPROCS than
// the baseline's — so the comparison compared nothing.
func Matched(deltas []Delta) (matched, baseline int) {
	for _, d := range deltas {
		if !d.OnlyNew {
			baseline++
			if !d.OnlyOld {
				matched++
			}
		}
	}
	return matched, baseline
}

// FormatDeltas renders deltas as an aligned text table, flagging
// regressions beyond tolerance. The layout is stable so CI logs diff
// cleanly between runs.
func FormatDeltas(deltas []Delta, tolerance float64) string {
	var sb strings.Builder
	w := len("benchmark")
	for _, d := range deltas {
		if len(d.Name) > w {
			w = len(d.Name)
		}
	}
	unit := "value"
	if len(deltas) > 0 {
		unit = deltas[0].Unit
	}
	fmt.Fprintf(&sb, "%-*s  %14s  %14s  %8s\n", w, "benchmark", "old "+unit, "new "+unit, "delta")
	for _, d := range deltas {
		switch {
		case d.OnlyOld:
			fmt.Fprintf(&sb, "%-*s  %14.2f  %14s  %8s  MISSING\n", w, d.Name, d.Old, "-", "-")
		case d.OnlyNew:
			fmt.Fprintf(&sb, "%-*s  %14s  %14.2f  %8s  NEW\n", w, d.Name, "-", d.New, "-")
		default:
			mark := ""
			if d.Regressed(tolerance) {
				mark = "  REGRESSION"
			}
			fmt.Fprintf(&sb, "%-*s  %14.2f  %14.2f  %+7.1f%%%s\n", w, d.Name, d.Old, d.New, (d.Ratio-1)*100, mark)
		}
	}
	return sb.String()
}
