package memctrl

import (
	"bytes"
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// runTelemetryWorkload drives a controller through a seeded mixed
// read/write workload and returns the final time.
func runTelemetryWorkload(t *testing.T, c *Controller, seed int64, ops int) sim.Time {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var now sim.Time
	var err error
	for i := 0; i < ops; i++ {
		a := uint64(rng.Intn(1<<12)) * nvm.LineSize
		if rng.Intn(2) == 0 {
			var l nvm.Line
			rng.Read(l[:8])
			now, err = c.WriteBlock(now, a, &l)
		} else {
			_, now, err = c.ReadBlock(now, a)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return now
}

// TestTelemetryMatchesStats: the counters the registry accumulates must
// agree with the legacy Stats structs they mirror — the differential
// contract that locks the wiring down.
func TestTelemetryMatchesStats(t *testing.T) {
	for _, mode := range []Mode{ModeBaseline, ModeSRC, ModeSAC} {
		t.Run(mode.String(), func(t *testing.T) {
			c, err := New(config.TestSystem(), mode, []byte("tel"), Options{})
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			c.AttachTelemetry(reg)
			// Device stats accumulate from construction (shadow-table
			// bootstrap); telemetry starts counting at attach.
			devBase := c.Device().Stats()
			runTelemetryWorkload(t, c, 42, 400)
			c.FlushAll(c.now)

			snap := reg.Snapshot()
			st := c.Stats()
			checks := map[string]uint64{
				"memctrl_mem_requests_total":      st.MemRequests,
				"memctrl_data_reads_total":        st.DataReads,
				"memctrl_data_writes_total":       st.DataWrites,
				"memctrl_cold_reads_total":        st.ColdReads,
				"memctrl_nvm_reads_total":         st.NVMReads,
				"memctrl_wpq_forwards_total":      st.WPQForwards,
				"memctrl_forced_writebacks_total": st.ForcedWB,
				"memctrl_page_reencrypts_total":   st.PageReencrypt,
			}
			for cat := WCData; cat < wcCount; cat++ {
				checks["memctrl_nvm_writes_"+cat.String()+"_total"] = st.NVMWrites[cat]
			}
			ms := c.MetaStats()
			checks["metacache_hits_total"] = ms.Hits
			checks["metacache_misses_total"] = ms.Misses
			checks["metacache_dirty_tree_evictions_total"] = ms.DirtyTreeEvictions
			ws := c.WPQStats()
			checks["wpq_inserts_total"] = ws.Inserts
			checks["wpq_coalesced_total"] = ws.Coalesced
			checks["wpq_stalls_total"] = ws.Stalls
			checks["wpq_atomic_sets_total"] = ws.AtomicSets
			ds := c.Device().Stats()
			checks["nvm_reads_total"] = ds.Reads - devBase.Reads
			checks["nvm_writes_total"] = ds.Writes - devBase.Writes
			ss := c.ShadowStats()
			checks["shadow_entry_writes_total"] = ss.EntryWrites
			checks["shadow_invalidations_total"] = ss.Invalidations
			fs := c.FaultStats()
			checks["fault_reads_total"] = fs.Reads

			for name, want := range checks {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, want %d (stats)", name, got, want)
				}
			}
			if got, want := snap.Gauges["wpq_depth_max"], int64(ws.MaxDepth); got != want {
				t.Errorf("wpq_depth_max = %d, want %d", got, want)
			}
			if snap.Counters["trace_read_block_total"] != st.DataReads {
				t.Errorf("read_block spans = %d, want %d",
					snap.Counters["trace_read_block_total"], st.DataReads)
			}
			if snap.Counters["trace_write_block_total"] != st.DataWrites {
				t.Errorf("write_block spans = %d, want %d",
					snap.Counters["trace_write_block_total"], st.DataWrites)
			}
		})
	}
}

// TestTelemetryDeterministic: two controllers with identical seeds must
// produce byte-identical telemetry JSON — the per-controller half of the
// golden-snapshot guarantee.
func TestTelemetryDeterministic(t *testing.T) {
	run := func() []byte {
		c, err := New(config.TestSystem(), ModeSRC, []byte("det"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		c.AttachTelemetry(reg)
		runTelemetryWorkload(t, c, 7, 300)
		c.FlushAll(c.now)
		data, err := reg.Snapshot().MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical seeds produced different telemetry:\n%s\n---\n%s", a, b)
	}
}

// TestTelemetryDetached: a controller with no registry (and one detached
// via AttachTelemetry(nil)) must behave identically to an attached one —
// telemetry must never perturb simulation state.
func TestTelemetryDetached(t *testing.T) {
	mk := func(attach bool) *Controller {
		c, err := New(config.TestSystem(), ModeSRC, []byte("off"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			c.AttachTelemetry(telemetry.NewRegistry())
		} else {
			c.AttachTelemetry(telemetry.NewRegistry())
			c.AttachTelemetry(nil) // detach again
		}
		return c
	}
	on, off := mk(true), mk(false)
	tOn := runTelemetryWorkload(t, on, 99, 200)
	tOff := runTelemetryWorkload(t, off, 99, 200)
	if tOn != tOff {
		t.Fatalf("telemetry changed simulated time: %d vs %d", tOn, tOff)
	}
	if on.Stats() != off.Stats() {
		t.Fatalf("telemetry changed controller stats:\n%+v\n%+v", on.Stats(), off.Stats())
	}
}

// TestTelemetrySurvivesRecovery: the shadow table's activity must keep
// landing in the attached registry after crash recovery, and no counter
// may fall across ResetStats, Crash or Recover, although the books they
// export report only the activity since the last reset.
func TestTelemetrySurvivesRecovery(t *testing.T) {
	c, err := New(config.TestSystem(), ModeSRC, []byte("rec"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.AttachTelemetry(reg)
	runTelemetryWorkload(t, c, 5, 100)
	prev := reg.Snapshot()
	noneFell := func(step string) {
		t.Helper()
		now := reg.Snapshot()
		for name, v := range prev.Counters {
			if now.Counters[name] < v {
				t.Errorf("%s fell across %s: %d -> %d", name, step, v, now.Counters[name])
			}
		}
		prev = now
	}
	c.ResetStats()
	noneFell("ResetStats")
	if err := c.Crash(); err != nil {
		t.Fatal(err)
	}
	noneFell("Crash")
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	noneFell("Recover")
	if c.ShadowStats().EntryWrites >= prev.Counters["shadow_entry_writes_total"] {
		t.Errorf("shadow books not reset by the crash: %d entry writes", c.ShadowStats().EntryWrites)
	}
	before := reg.Snapshot().Counters["shadow_entry_writes_total"]
	runTelemetryWorkload(t, c, 6, 100)
	after := reg.Snapshot().Counters["shadow_entry_writes_total"]
	if after <= before {
		t.Fatalf("shadow telemetry dead after recovery: %d -> %d", before, after)
	}
}
