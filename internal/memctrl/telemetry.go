package memctrl

import (
	"fmt"

	"soteria/internal/telemetry"
)

// telemetryHooks holds the controller's metric handles for what its books
// do not count. All handles are nil until AttachTelemetry is called; nil
// handles no-op, so an unattached controller pays one nil check per event.
type telemetryHooks struct {
	fillsByLevel []*telemetry.Counter // metadata fills per tree level (0 = MAC lines)

	readSpan  telemetry.SpanHandle // ReadBlock, in sim-time ticks
	writeSpan telemetry.SpanHandle // WriteBlock, in sim-time ticks
}

// fill returns the fill counter of a metadata level, or nil (which counts
// nothing) when telemetry is detached.
func (h *telemetryHooks) fill(level int) *telemetry.Counter {
	if level >= 0 && level < len(h.fillsByLevel) {
		return h.fillsByLevel[level]
	}
	return nil
}

// AttachTelemetry exports the controller's books to r, registers its
// handles there, and cascades to every layer beneath it (metadata cache,
// WPQ, NVM device, crypto engine, shadow table and its BMT, fault
// handler). The exported counters start at attach and count on across
// ResetStats, Crash and Recover. Passing nil detaches the handles. Span
// durations are measured on the controller's *simulated* clock, so for a
// fixed seed the whole registry snapshot is deterministic.
func (c *Controller) AttachTelemetry(r *telemetry.Registry) {
	r.Export("memctrl_mem_requests_total", func() uint64 { return c.stats.MemRequests })
	r.Export("memctrl_data_reads_total", func() uint64 { return c.stats.DataReads })
	r.Export("memctrl_data_writes_total", func() uint64 { return c.stats.DataWrites })
	r.Export("memctrl_cold_reads_total", func() uint64 { return c.stats.ColdReads })
	r.Export("memctrl_nvm_reads_total", func() uint64 { return c.stats.NVMReads })
	r.Export("memctrl_wpq_forwards_total", func() uint64 { return c.stats.WPQForwards })
	r.Export("memctrl_page_reencrypts_total", func() uint64 { return c.stats.PageReencrypt })
	r.Export("memctrl_forced_writebacks_total", func() uint64 { return c.stats.ForcedWB })
	r.Export("memctrl_recovery_lost_total", func() uint64 { return c.stats.RecoveryLost })
	r.Export("memctrl_recovered_ok_total", func() uint64 { return c.stats.RecoveredOK })
	for cat := WCData; cat < wcCount; cat++ {
		r.Export("memctrl_nvm_writes_"+cat.String()+"_total", func() uint64 { return c.stats.NVMWrites[cat] })
	}
	levels := 0
	if c.layout != nil {
		levels = c.layout.TopLevel()
	}
	fills := make([]*telemetry.Counter, levels+1)
	for l := range fills {
		fills[l] = r.Counter(fmt.Sprintf("memctrl_meta_fills_level_%d_total", l))
	}
	tracer := telemetry.NewTracer(r, func() int64 { return int64(c.now) })
	c.tel = telemetryHooks{
		fillsByLevel: fills,
		readSpan:     tracer.Handle("read_block"),
		writeSpan:    tracer.Handle("write_block"),
	}

	c.q.AttachTelemetry(r)
	c.dev.AttachTelemetry(r)
	if c.eng != nil {
		c.eng.AttachTelemetry(r)
	}
	if c.mcache != nil {
		c.mcache.AttachTelemetry(r)
	}
	if c.shadow != nil {
		c.shadow.AttachTelemetry(r)
	}
	if c.fh != nil {
		c.fh.AttachTelemetry(r)
	}
}
