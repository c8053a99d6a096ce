package memctrl

import (
	"fmt"

	"soteria/internal/telemetry"
)

// telemetryHooks holds the controller's own metric handles. All handles
// are nil until AttachTelemetry is called; nil handles no-op, so an
// unattached controller pays one nil check per event.
type telemetryHooks struct {
	memRequests   *telemetry.Counter
	dataReads     *telemetry.Counter
	dataWrites    *telemetry.Counter
	coldReads     *telemetry.Counter
	nvmReads      *telemetry.Counter
	nvmWrites     [wcCount]*telemetry.Counter
	wpqForwards   *telemetry.Counter
	pageReencrypt *telemetry.Counter
	forcedWB      *telemetry.Counter
	recoveryLost  *telemetry.Counter
	recoveredOK   *telemetry.Counter
	fillsByLevel  []*telemetry.Counter // metadata fills per tree level (0 = MAC lines)

	readSpan  telemetry.SpanHandle // ReadBlock, in sim-time ticks
	writeSpan telemetry.SpanHandle // WriteBlock, in sim-time ticks
}

// AttachTelemetry registers the controller's metrics on r and cascades to
// every layer beneath it (metadata cache, WPQ, NVM device, crypto engine,
// shadow table and its BMT, fault handler). Passing nil detaches all of
// them. Span durations are measured on the controller's *simulated* clock,
// so for a fixed seed the whole registry snapshot is deterministic.
func (c *Controller) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		c.tel = telemetryHooks{}
	} else {
		c.tel = telemetryHooks{
			memRequests:   r.Counter("memctrl_mem_requests_total"),
			dataReads:     r.Counter("memctrl_data_reads_total"),
			dataWrites:    r.Counter("memctrl_data_writes_total"),
			coldReads:     r.Counter("memctrl_cold_reads_total"),
			nvmReads:      r.Counter("memctrl_nvm_reads_total"),
			wpqForwards:   r.Counter("memctrl_wpq_forwards_total"),
			pageReencrypt: r.Counter("memctrl_page_reencrypts_total"),
			forcedWB:      r.Counter("memctrl_forced_writebacks_total"),
			recoveryLost:  r.Counter("memctrl_recovery_lost_total"),
			recoveredOK:   r.Counter("memctrl_recovered_ok_total"),
		}
		for cat := WCData; cat < wcCount; cat++ {
			c.tel.nvmWrites[cat] = r.Counter("memctrl_nvm_writes_" + cat.String() + "_total")
		}
		levels := 0
		if c.layout != nil {
			levels = c.layout.TopLevel()
		}
		c.tel.fillsByLevel = make([]*telemetry.Counter, levels+1)
		for l := 0; l <= levels; l++ {
			c.tel.fillsByLevel[l] = r.Counter(fmt.Sprintf("memctrl_meta_fills_level_%d_total", l))
		}
		tracer := telemetry.NewTracer(r, func() int64 { return int64(c.now) })
		c.tel.readSpan = tracer.Handle("read_block")
		c.tel.writeSpan = tracer.Handle("write_block")
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
