package chaos

import (
	"strings"
	"testing"

	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

// plant is one lie a faulty stack tells the oracle after recovery.
type plant int

const (
	plantNone       plant = iota
	plantStale            // one acknowledged write reads back stale
	plantInFlight         // the in-flight line reads a third value
	plantAccounting       // the report claims more recovered than tracked
	plantStaleRead        // one acknowledged workload read returns stale data
)

// faultyStack wraps a real stack and plants one fault in what the
// power-loss recovery hands back.
type faultyStack struct {
	stack
	sc        *scenario
	plant     plant
	recovered bool
	planted   bool
}

func (f *faultyStack) recover() (*device.RecoveryReport, error) {
	rep, err := f.stack.recover()
	if err == nil && !f.recovered && f.plant == plantAccounting {
		sr := *rep.Shards[0]
		sr.RecoveredBlocks = sr.TrackedEntries + 1
		rep = &device.RecoveryReport{Shards: append([]*memctrl.RecoveryReport{&sr}, rep.Shards[1:]...)}
	}
	f.recovered = true
	return rep, err
}

// op answers the first workload read of a committed line with the line
// as it was before its first write.
func (f *faultyStack) op(i int, k key, line *nvm.Line) {
	if _, ok := f.sc.committed[k]; ok && line == nil && f.plant == plantStaleRead && !f.planted {
		f.planted = true
		f.sc.done(i, nvm.Line{}, nil)
		return
	}
	f.stack.op(i, k, line)
}

func (f *faultyStack) read(k key) (nvm.Line, error) {
	got, err := f.stack.read(k)
	if !f.recovered || f.planted || err != nil {
		return got, err
	}
	switch {
	case f.plant == plantStale && k != f.sc.inFlightKey:
		f.planted = true
		return nvm.Line{}, nil // the line as it was before its first write
	case f.plant == plantInFlight && k == f.sc.inFlightKey:
		f.planted = true
		return lineFor(f.sc.seed, k.tenant, len(f.sc.ops)), nil
	}
	return got, err
}

// TestOracleCatchesPlantedFaults: on every stack the runner drives, each
// planted fault must surface as a violation, and the same run without a
// plant must be clean.
func TestOracleCatchesPlantedFaults(t *testing.T) {
	stacks := []struct {
		name  string
		build func(t *testing.T, crashAt int) *scenario
	}{
		{"controller", func(t *testing.T, k int) *scenario {
			sc, _, err := newCtrlScenario(Config{Seed: 3, Writes: 40, Mode: memctrl.ModeSRC, CrashAt: k, NestedCrashAt: -1})
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}},
		{"device", func(t *testing.T, k int) *scenario {
			sc, d, err := newDeviceScenario(DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: k})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.dev.Close() })
			return sc
		}},
		{"tenant", func(t *testing.T, k int) *scenario {
			sc, ts, err := newTenantScenario(TenantConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: k}, Tenants: 2, RotateAt: 10})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ts.dev.Close() })
			return sc
		}},
		{"net stop-and-wait", func(t *testing.T, k int) *scenario {
			sc, n, err := newNetScenario(NetConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: k}, Clients: 2})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(n.close)
			return sc
		}},
		{"net pipe", func(t *testing.T, k int) *scenario {
			sc, n, err := newNetScenario(NetConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC, CrashAt: k}, Pipeline: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(n.close)
			return sc
		}},
	}
	plants := []struct {
		plant plant
		want  string // substring of the violation the plant must cause
	}{
		{plantNone, ""},
		{plantStale, "silent corruption"},
		{plantInFlight, "in-flight"},
		{plantAccounting, "recovery report accounting"},
		{plantStaleRead, "stale or corrupt read"},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			probe := st.build(t, -1).run()
			for _, p := range plants {
				// Crash mid-workload on a write, so there is an in-flight
				// line as well as acknowledged ones.
				ran := false
				for k := probe.Boundaries / 2; k < probe.Boundaries && !ran; k++ {
					sc := st.build(t, k)
					sc.stack = &faultyStack{stack: sc.stack, sc: sc, plant: p.plant}
					res := sc.run()
					if ran = res.Crashed && sc.inFlight >= 0; !ran {
						continue
					}
					caught := false
					for _, v := range res.Violations {
						caught = caught || (p.want != "" && strings.Contains(v, p.want))
					}
					switch {
					case p.want == "" && len(res.Violations) > 0:
						t.Errorf("crash-at %d without a plant: %v", k, res.Violations)
					case p.want != "" && !caught:
						t.Errorf("plant %d at crash-at %d not caught (want %q): %v", p.plant, k, p.want, res.Violations)
					}
				}
				if !ran {
					t.Fatalf("no crash point in the second half of %d boundaries cuts a write", probe.Boundaries)
				}
			}
		})
	}
}
