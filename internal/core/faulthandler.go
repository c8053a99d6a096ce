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

// LossEvent records one unverifiable-node incident.
type LossEvent struct {
	Level int
	Index uint64
	Bytes uint64 // data bytes rendered unverifiable
}

// DefaultEventLimit bounds the per-incident Events log. Aggregate counters
// keep counting past the cap; only the detailed log stops growing, which
// keeps million-trial Monte Carlo campaigns from blowing up memory.
const DefaultEventLimit = 4096

// Stats aggregates fault-handler activity.
type Stats struct {
	Reads             uint64
	CloneLookups      uint64
	Repairs           uint64
	TamperDetections  uint64
	UnverifiableNodes uint64
	UnverifiableBytes uint64
	// Events holds up to the configured event limit of detailed
	// unverifiable-node records; EventsDropped counts the overflow.
	Events        []LossEvent
	EventsDropped uint64
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
	mem        Mem
	layout     *itree.Layout
	stats      Stats
	eventLimit int
	tel        telemetryHooks
}

// telemetryHooks holds the handler's metric handles; nil handles (no
// registry attached) are no-ops. Unlike Stats, these are lifetime
// counters: ResetStats does not touch them, so per-run resets can never
// drop events from the telemetry view.
type telemetryHooks struct {
	reads         *telemetry.Counter
	cloneLookups  *telemetry.Counter
	repairs       *telemetry.Counter
	tampers       *telemetry.Counter
	unverifiable  *telemetry.Counter
	unverifBytes  *telemetry.Counter
	eventsDropped *telemetry.Counter
}

// AttachTelemetry registers the fault-handler metrics on r (nil detaches).
func (h *FaultHandler) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		h.tel = telemetryHooks{}
		return
	}
	h.tel = telemetryHooks{
		reads:         r.Counter("fault_reads_total"),
		cloneLookups:  r.Counter("fault_clone_lookups_total"),
		repairs:       r.Counter("fault_repairs_total"),
		tampers:       r.Counter("fault_tamper_detections_total"),
		unverifiable:  r.Counter("fault_unverifiable_nodes_total"),
		unverifBytes:  r.Counter("fault_unverifiable_bytes_total"),
		eventsDropped: r.Counter("fault_events_dropped_total"),
	}
}

// NewFaultHandler builds a handler over the given memory and layout.
func NewFaultHandler(mem Mem, layout *itree.Layout) *FaultHandler {
	return &FaultHandler{mem: mem, layout: layout, eventLimit: DefaultEventLimit}
}

// SetEventLimit adjusts how many detailed LossEvents are retained. Zero
// disables the detailed log entirely (counters still accumulate); negative
// removes the bound.
func (h *FaultHandler) SetEventLimit(n int) { h.eventLimit = n }

// Stats returns a copy of the accumulated statistics. The Events log is
// deep-copied so the snapshot cannot alias (and later disagree with) the
// handler's live log.
func (h *FaultHandler) Stats() Stats {
	s := h.stats
	s.Events = append([]LossEvent(nil), h.stats.Events...)
	return s
}

// ResetStats clears the accumulated statistics (between experiment runs)
// and returns the statistics as they stood immediately before the reset.
// Returning the pre-reset snapshot (with a deep-copied Events log) closes
// a window where an experiment harness that called Stats() and then
// ResetStats() separately could lose incidents recorded in between — any
// event accumulated up to the reset instant is in the returned value.
// Telemetry counters attached via AttachTelemetry are lifetime totals and
// are deliberately not reset here.
func (h *FaultHandler) ResetStats() Stats {
	prev := h.stats
	prev.Events = append([]LossEvent(nil), h.stats.Events...)
	h.stats = Stats{}
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
	h.tel.reads.Inc()
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
		h.tel.cloneLookups.Inc()
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
		h.tel.repairs.Inc()
		return OutcomeRepaired, c + 1
	}

	// No copy verified. Distinguish "random faults killed everything"
	// from "consistent content that simply fails verification", which
	// is how a replay of all copies (or of a node with no clones and no
	// ECC complaint) manifests.
	if !homeECCBad {
		h.stats.TamperDetections++
		h.tel.tampers.Inc()
		return OutcomeTamper, clones
	}
	start, end := h.layout.CoverageOf(level, index)
	h.stats.UnverifiableNodes++
	h.stats.UnverifiableBytes += end - start
	h.tel.unverifiable.Inc()
	h.tel.unverifBytes.Add(end - start)
	if h.eventLimit < 0 || len(h.stats.Events) < h.eventLimit {
		h.stats.Events = append(h.stats.Events, LossEvent{Level: level, Index: index, Bytes: end - start})
	} else {
		h.stats.EventsDropped++
		h.tel.eventsDropped.Inc()
	}
	return OutcomeUnverifiable, clones
}
