package chaos

import (
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// TestDifferentialStrategies drives every registered strategy through the
// identical seeded workload, cuts power at the same operation boundary
// (operation granularity, so the cut point is strategy-independent —
// device-write boundaries are not comparable across schemes), recovers,
// replays the tail, and demands byte-identical data images. The strategies
// are allowed — expected — to differ only in their metadata persistence
// stats, which the test cross-checks as a sanity signature of each scheme.
func TestDifferentialStrategies(t *testing.T) {
	const ops = 120
	for _, seed := range []int64{3, 17} {
		for _, crashAfter := range []int{10, 57, 111} {
			// One deterministic op schedule shared by every strategy.
			rng := rand.New(rand.NewSource(seed))
			sys := config.TestSystem()
			layout := sysDataBlocks(t, sys)
			ws := make([]uint64, 48)
			for i := range ws {
				ws[i] = uint64(rng.Int63n(int64(layout))) * nvm.LineSize
			}
			type op struct {
				write bool
				addr  uint64
			}
			sched := make([]op, ops)
			for i := range sched {
				sched[i] = op{write: i == 0 || rng.Float64() >= 0.25, addr: ws[rng.Intn(len(ws))]}
			}

			type outcome struct {
				image      map[uint64]nvm.Line
				shadowOps  uint64
				recoveryWr uint64
				metadataWr uint64
			}
			results := map[string]outcome{}
			for _, strategy := range memctrl.Strategies() {
				ctrl, err := memctrl.New(sys, memctrl.ModeSRC, []byte("diff-key"), memctrl.Options{Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				var now sim.Time
				runOp := func(i int) {
					if sched[i].write {
						line := lineFor(seed, 0, i)
						if now, err = ctrl.WriteBlock(now, sched[i].addr, &line); err != nil {
							t.Fatalf("%s op %d: %v", strategy, i, err)
						}
					} else if _, now, err = ctrl.ReadBlock(now, sched[i].addr); err != nil {
						t.Fatalf("%s op %d: %v", strategy, i, err)
					}
				}
				for i := 0; i <= crashAfter; i++ {
					runOp(i)
				}
				if err := ctrl.Crash(); err != nil {
					t.Fatalf("%s crash: %v", strategy, err)
				}
				rep, err := ctrl.Recover()
				if err != nil {
					t.Fatalf("%s recover: %v", strategy, err)
				}
				if len(rep.FailedBlocks) > 0 || len(rep.LostSlots) > 0 {
					t.Fatalf("%s recovery lost data with no faults injected: %+v", strategy, rep)
				}
				for i := crashAfter + 1; i < ops; i++ {
					runOp(i)
				}
				now = ctrl.FlushAll(now)
				if err := ctrl.VerifyAll(); err != nil {
					t.Fatalf("%s verify: %v", strategy, err)
				}
				image := map[uint64]nvm.Line{}
				for _, a := range ws {
					got, n2, err := ctrl.ReadBlock(now, a)
					if err != nil {
						t.Fatalf("%s read %#x: %v", strategy, a, err)
					}
					now = n2
					image[a] = got
				}
				st := ctrl.Stats()
				results[strategy] = outcome{
					image:      image,
					shadowOps:  st.NVMWrites[memctrl.WCShadow],
					recoveryWr: st.NVMWrites[memctrl.WCRecovery],
					metadataWr: st.NVMWrites[memctrl.WCMetadata],
				}
			}

			ref := results["soteria"]
			for strategy, got := range results {
				for a, want := range ref.image {
					if got.image[a] != want {
						t.Errorf("seed %d crash %d: %s data image diverges from soteria at %#x",
							seed, crashAfter, strategy, a)
						break
					}
				}
			}

			// The metadata signatures must differ in the scheme-defining
			// ways: tracking tables write shadow lines, Triad writes none
			// but pays recovery rebuild writes.
			if ref.shadowOps == 0 {
				t.Errorf("soteria wrote no shadow lines")
			}
			if results["anubis-shadow"].shadowOps <= ref.shadowOps {
				t.Errorf("anubis (2 lines/update) wrote %d shadow lines, soteria %d — expected more",
					results["anubis-shadow"].shadowOps, ref.shadowOps)
			}
			for _, triad := range []string{"triad-nvm", "triad-nvm-2"} {
				if results[triad].shadowOps != 0 {
					t.Errorf("%s wrote %d shadow lines; the scheme keeps no tracking table", triad, results[triad].shadowOps)
				}
				if results[triad].recoveryWr == 0 {
					t.Errorf("%s performed no recovery rebuild writes", triad)
				}
			}
			if results["triad-nvm-2"].metadataWr < results["triad-nvm"].metadataWr {
				t.Errorf("triad-nvm-2 (%d metadata writes) should persist at least as much as triad-nvm (%d)",
					results["triad-nvm-2"].metadataWr, results["triad-nvm"].metadataWr)
			}
		}
	}
}

func sysDataBlocks(t *testing.T, sys config.SystemConfig) uint64 {
	t.Helper()
	ctrl, err := memctrl.New(sys, memctrl.ModeSRC, []byte("probe"), memctrl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl.Layout().DataBlocks
}
