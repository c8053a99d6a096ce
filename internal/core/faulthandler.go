package core

import (
	"soteria/internal/itree"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
)

// Mem is the device access the fault handler needs. Reads report detected
// uncorrectable errors; writes are repair ("purify") writes and bypass the
// WPQ timing path (recovery is not on the performance-critical path).
type Mem interface {
	ReadLine(addr uint64) (line nvm.Line, uncorrectable bool)
	WriteLine(addr uint64, line *nvm.Line)
}

// Outcome classifies one verified metadata read (Fig 9).
type Outcome int

// Outcomes of FaultHandler.ReadVerified.
const (
	// OutcomeClean: home copy read and verified with no incident.
	OutcomeClean Outcome = iota
	// OutcomeRepaired: the home copy was uncorrectable or failed MAC
	// verification, but a clone passed and all copies were purified.
	OutcomeRepaired
	// OutcomeUnverifiable: every copy was bad. The data covered by this
	// node can no longer be verified (counted toward UDR). With no
	// clones configured this is also where a baseline system lands on
	// any uncorrectable metadata error.
	OutcomeUnverifiable
	// OutcomeTamper: the home copy failed verification but had no ECC
	// error and no clone disagreed with it consistently — every copy
	// carries the same MAC-failing content, which is the signature of a
	// coordinated replay/tamper rather than a random fault (step 6 of
	// Fig 9: "recovery will fail in the integrity verification stage,
	// and the attack will be detected").
	OutcomeTamper
)

func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeRepaired:
		return "repaired"
	case OutcomeUnverifiable:
		return "unverifiable"
	case OutcomeTamper:
		return "tamper"
	default:
		return "?"
	}
}

// Stats aggregates fault-handler activity.
type Stats struct {
	Reads             uint64
	CloneLookups      uint64
	Repairs           uint64
	TamperDetections  uint64
	UnverifiableNodes uint64
	UnverifiableBytes uint64
}

// UDR returns the Unverifiable Data Ratio accumulated so far against the
// given total memory size (§5.3: UDR = L_unverifiable / total size).
func (s Stats) UDR(totalBytes uint64) float64 {
	if totalBytes == 0 {
		return 0
	}
	return float64(s.UnverifiableBytes) / float64(totalBytes)
}

// FaultHandler implements Soteria's metadata fault handling (Fig 9): on a
// verification or ECC failure of a metadata node it walks the node's
// clones, adopts the first copy that passes integrity verification, and
// purifies every copy from it.
type FaultHandler struct {
	mem    Mem
	layout *itree.Layout
	// stats counts every event since construction; Stats reports the
	// growth since atReset, the books as the last ResetStats left them.
	stats, atReset Stats
}

// AttachTelemetry exports the handler's books to r as the fault_*
// counters (nil exports nothing).
func (h *FaultHandler) AttachTelemetry(r *telemetry.Registry) {
	r.Export("fault_reads_total", func() uint64 { return h.stats.Reads })
	r.Export("fault_clone_lookups_total", func() uint64 { return h.stats.CloneLookups })
	r.Export("fault_repairs_total", func() uint64 { return h.stats.Repairs })
	r.Export("fault_tamper_detections_total", func() uint64 { return h.stats.TamperDetections })
	r.Export("fault_unverifiable_nodes_total", func() uint64 { return h.stats.UnverifiableNodes })
	r.Export("fault_unverifiable_bytes_total", func() uint64 { return h.stats.UnverifiableBytes })
}

// NewFaultHandler builds a handler over the given memory and layout.
func NewFaultHandler(mem Mem, layout *itree.Layout) *FaultHandler {
	return &FaultHandler{mem: mem, layout: layout}
}

// Stats returns the statistics accumulated since the last ResetStats.
func (h *FaultHandler) Stats() Stats {
	s, z := h.stats, h.atReset
	return Stats{
		Reads:             s.Reads - z.Reads,
		CloneLookups:      s.CloneLookups - z.CloneLookups,
		Repairs:           s.Repairs - z.Repairs,
		TamperDetections:  s.TamperDetections - z.TamperDetections,
		UnverifiableNodes: s.UnverifiableNodes - z.UnverifiableNodes,
		UnverifiableBytes: s.UnverifiableBytes - z.UnverifiableBytes,
	}
}

// ResetStats clears the accumulated statistics (between experiment runs)
// and returns the statistics as they stood immediately before the reset,
// so a harness cannot lose incidents recorded between a Stats() call and
// the reset. The exported telemetry counts on across it.
func (h *FaultHandler) ResetStats() Stats {
	prev := h.Stats()
	h.atReset = h.stats
	return prev
}

// ReadVerified reads metadata node (level, index) into dst, verifying each
// candidate copy there with the caller-supplied predicate (MAC check under
// the parent counter). It returns the outcome and how many clones it
// consulted (each one an extra device read). For OutcomeClean and
// OutcomeRepaired dst holds the verified line; for OutcomeUnverifiable and
// OutcomeTamper it holds the last copy read and must not be trusted.
//
// The predicate is a function value, so the compiler must assume it keeps
// the pointer it is handed: dst should not be a stack variable on a hot
// path, or it moves to the heap on every read.
func (h *FaultHandler) ReadVerified(level int, index uint64, dst *nvm.Line, verify func(line *nvm.Line) bool) (Outcome, int) {
	h.stats.Reads++
	var unc bool
	*dst, unc = h.mem.ReadLine(h.layout.NodeAddr(level, index))
	if !unc && verify(dst) {
		return OutcomeClean, 0
	}
	homeECCBad := unc

	// Step 4 of Fig 9: bring all clones and attempt to verify/repair.
	clones := len(h.layout.Levels[level-1].CloneBases)
	for c := 0; c < clones; c++ {
		h.stats.CloneLookups++
		*dst, unc = h.mem.ReadLine(h.layout.CloneAddr(level, index, c))
		if unc || !verify(dst) {
			continue
		}
		// Step 6-7: a clone passed; purify the home copy and every clone.
		h.mem.WriteLine(h.layout.NodeAddr(level, index), dst)
		for k := 0; k < clones; k++ {
			h.mem.WriteLine(h.layout.CloneAddr(level, index, k), dst)
		}
		h.stats.Repairs++
		return OutcomeRepaired, c + 1
	}

	// No copy verified. Distinguish "random faults killed everything"
	// from "consistent content that simply fails verification", which
	// is how a replay of all copies (or of a node with no clones and no
	// ECC complaint) manifests.
	if !homeECCBad {
		h.stats.TamperDetections++
		return OutcomeTamper, clones
	}
	start, end := h.layout.CoverageOf(level, index)
	h.stats.UnverifiableNodes++
	h.stats.UnverifiableBytes += end - start
	return OutcomeUnverifiable, clones
}
