package memctrl

import (
	"fmt"
	"testing"

	"soteria/internal/config"
	"soteria/internal/nvm"
	"soteria/internal/shadow"
	"soteria/internal/telemetry"
)

func TestStrategySmokeCrashRecover(t *testing.T) {
	for _, name := range Strategies() {
		t.Run(name, func(t *testing.T) {
			ctrl, err := New(config.TestSystem(), ModeSRC, []byte("k"), Options{Strategy: name})
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]nvm.Line{}
			for i := 0; i < 300; i++ {
				addr := uint64(i%96) * 64
				var line nvm.Line
				copy(line[:], fmt.Sprintf("v%d-%d", i, addr))
				if _, err := ctrl.WriteBlock(0, addr, &line); err != nil {
					t.Fatalf("write %d: %v", i, err)
				}
				want[addr] = line
			}
			if err := ctrl.Crash(); err != nil {
				t.Fatal(err)
			}
			rep, err := ctrl.Recover()
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if len(rep.FailedBlocks) != 0 || len(rep.LostSlots) != 0 {
				t.Fatalf("report: %+v", rep)
			}
			for addr, w := range want {
				got, _, err := ctrl.ReadBlock(0, addr)
				if err != nil {
					t.Fatalf("read %#x: %v", addr, err)
				}
				if got != w {
					t.Fatalf("addr %#x mismatch", addr)
				}
			}
			ctrl.FlushAll(0)
			if err := ctrl.VerifyAll(); err != nil {
				t.Fatalf("verify: %v", err)
			}
		})
	}
}

// TestShadowTableAcrossCrash pins what a crash does to the shadow table of
// both entry formats: its volatile state (valid flags, stats) is gone until
// Recover reads the table back, Recover's stats count only recovery's own
// writes, and a registry attached while crashed receives the table's
// series.
func TestShadowTableAcrossCrash(t *testing.T) {
	for _, tc := range []struct{ strategy, prefix string }{
		{"soteria", "shadow_"},
		{"anubis-shadow", "shadow_content_"},
	} {
		t.Run(tc.strategy, func(t *testing.T) {
			c, err := New(config.TestSystem(), ModeSRC, []byte("k"), Options{Strategy: tc.strategy})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				var line nvm.Line
				line[0] = byte(i)
				if _, err := c.WriteBlock(0, uint64(i%96)*nvm.LineSize, &line); err != nil {
					t.Fatal(err)
				}
			}
			tracked := len(c.TrackedSlots())
			if tracked == 0 || c.ShadowStats().EntryWrites == 0 {
				t.Fatalf("nothing tracked before the crash: %d slots, %+v", tracked, c.ShadowStats())
			}
			if err := c.Crash(); err != nil {
				t.Fatal(err)
			}
			if s := c.TrackedSlots(); len(s) != 0 {
				t.Fatalf("tracked slots after crash: %v", s)
			}
			if s := c.ShadowStats(); s != (shadow.Stats{}) {
				t.Fatalf("shadow stats after crash: %+v", s)
			}

			reg := telemetry.NewRegistry()
			c.AttachTelemetry(reg)
			rep, err := c.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rep.TrackedEntries != tracked || rep.RecoveredBlocks == 0 {
				t.Fatalf("report %+v, want %d tracked entries", rep, tracked)
			}
			// The registry counts from before Recover, so it holds
			// recovery's writes only, and so must the table's stats.
			snap := reg.Snapshot()
			s := c.ShadowStats()
			if s.EntryWrites < uint64(rep.RecoveredBlocks) {
				t.Fatalf("entry writes %d below the %d reseeded blocks", s.EntryWrites, rep.RecoveredBlocks)
			}
			for name, want := range map[string]uint64{
				"entry_writes_total":  s.EntryWrites,
				"invalidations_total": s.Invalidations,
			} {
				got, ok := snap.Counters[tc.prefix+name]
				if !ok || got != want {
					t.Errorf("%s%s = %d (registered %t), want %d", tc.prefix, name, got, ok, want)
				}
			}
			if snap.Counters["bmt_updates_total"] == 0 {
				t.Error("shadow BMT updates not counted on the registry attached while crashed")
			}
			if _, ok := snap.Counters["shadow_half_repairs_total"]; ok != (tc.strategy == "soteria") {
				t.Errorf("shadow_half_repairs_total registered = %t", ok)
			}
		})
	}
}
