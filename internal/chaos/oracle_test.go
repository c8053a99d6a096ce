package chaos

import (
	"strings"
	"testing"

	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/oracle"
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
func (f *faultyStack) op(i int, k key, line *nvm.Line) (nvm.Line, error) {
	if _, ok := f.sc.book.Acked[oracle.Key(k)]; ok && line == nil && f.plant == plantStaleRead && !f.planted {
		f.planted = true
		return nvm.Line{}, nil
	}
	return f.stack.op(i, k, line)
}

func (f *faultyStack) read(k key) (nvm.Line, error) {
	got, err := f.stack.read(k)
	if !f.recovered || f.planted || err != nil {
		return got, err
	}
	cut := f.sc.book.InFlight
	inFlight := cut != nil && cut.Key == oracle.Key(k)
	switch {
	case f.plant == plantStale && !inFlight:
		f.planted = true
		return nvm.Line{}, nil // the line as it was before its first write
	case f.plant == plantInFlight && inFlight:
		f.planted = true
		var third nvm.Line
		oracle.Fill(&third, f.sc.book.Seed, k.Stream, len(f.sc.ops))
		return third, nil
	}
	return got, err
}

// TestOracleCatchesPlantedFaults: on every stack the runner drives, each
// planted fault must surface as a violation, and the same run without a
// plant must be clean.
func TestOracleCatchesPlantedFaults(t *testing.T) {
	stacks := []struct {
		name string
		cfg  Target
	}{
		{"controller", Config{Seed: 3, Writes: 40, Mode: memctrl.ModeSRC, NestedCrashAt: -1}},
		{"device", DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC}},
		{"tenant", TenantConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC}, Tenants: 2, RotateAt: 10}},
		{"net stop-and-wait", NetConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC}, Clients: 2}},
		{"net pipe", NetConfig{DeviceConfig: DeviceConfig{Seed: 3, Writes: 40, Shards: 2, Mode: memctrl.ModeSRC}, Pipeline: 4}},
	}
	// build makes cfg's scenario crashing at k, closed when the test ends.
	build := func(t *testing.T, cfg Target, k int) *scenario {
		sc, err := cfg.crashingAt(k).build()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sc.stack.close)
		return sc
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
			probe := build(t, st.cfg, -1).run()
			for _, p := range plants {
				// Crash mid-workload on a write, so there is an in-flight
				// line as well as acknowledged ones.
				ran := false
				for k := probe.Boundaries / 2; k < probe.Boundaries && !ran; k++ {
					sc := build(t, st.cfg, k)
					sc.stack = &faultyStack{stack: sc.stack, sc: sc, plant: p.plant}
					res := sc.run()
					if ran = res.Crashed && sc.ops[sc.crashOp].kind == opWrite; !ran {
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
