package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Config fully determines one chaos scenario: same Config, same outcome.
type Config struct {
	Seed   int64
	Writes int // workload operations (roughly 3/4 writes, 1/4 reads)
	Mode   memctrl.Mode
	// Strategy selects the metadata-persistence scheme under test (empty =
	// memctrl.DefaultStrategy). Every strategy faces the identical workload,
	// crash schedule and acknowledged-write oracle.
	Strategy string
	// CrashAt cuts power at this workload write boundary; negative never.
	CrashAt int
	// NestedCrashAt cuts power again at this boundary of the recovery
	// that follows the first crash; negative never.
	NestedCrashAt int
	// FaultRate is the per-boundary probability of one random device
	// fault (bit flip, dead word, dead line) on a previously-written line.
	FaultRate float64
	// ShadowFaults kills one word of one half of this many in-use shadow
	// entries at crash time. A single-half fault is absorbable by
	// construction (Soteria duplicates each entry), so recovery must
	// still lose nothing — unless BreakHalfRepair is set.
	ShadowFaults int
	// BreakHalfRepair disables the duplicated-entry repair, deliberately
	// breaking recovery; the harness is expected to catch the loss.
	BreakHalfRepair bool
	// Logf, when non-nil, receives per-phase progress lines.
	Logf func(format string, args ...any)
}

// Result is what one scenario observed.
type Result struct {
	// Boundaries counts workload write boundaries (up to the crash, or
	// the whole workload when no crash fired).
	Boundaries int
	// RecoveryBoundaries counts write boundaries inside Recover (only
	// meaningful when the scenario crashed and NestedCrashAt < 0).
	RecoveryBoundaries int
	Crashed            bool
	CrashBoundary      int
	NestedCrashed      bool
	Report             *memctrl.RecoveryReport
	Faults             []AppliedFault
	ShadowFaultNotes   []string
	// OpErrors counts workload operations that returned a typed error
	// (legal under fault injection; a violation without it).
	OpErrors int
	// Violations lists every invariant breach. Empty means the scenario
	// upheld the paper's guarantees.
	Violations []string
}

// Run executes one scenario end to end on a bare controller: workload
// (with optional crash and fault schedule), recovery (with optional nested
// crash), then the runner's invariant oracle.
func Run(cfg Config) (*Result, error) {
	if cfg.Strategy != "" && cfg.Strategy != "soteria" {
		// Shadow-entry faults and the half-repair kill switch target the
		// Soteria duplicated-entry table specifically.
		if cfg.ShadowFaults > 0 {
			return nil, fmt.Errorf("chaos: ShadowFaults requires the soteria strategy (got %q)", cfg.Strategy)
		}
		if cfg.BreakHalfRepair {
			return nil, fmt.Errorf("chaos: BreakHalfRepair requires the soteria strategy (got %q)", cfg.Strategy)
		}
	}
	sc, c, err := newCtrlScenario(cfg)
	if err != nil {
		return nil, err
	}
	return c.result(sc.run()), nil
}

// ctrlStack drives one bare memctrl.Controller. It owns sim time and the
// PowerLoss guard, and the recovery that follows the workload's power loss
// is where shadow-entry faults land and a nested power loss may cut in.
type ctrlStack struct {
	cfg  Config
	sc   *scenario
	ctrl *memctrl.Controller
	inj  *Injector
	now  sim.Time

	tracked []uint64 // shadow slots in use when power was lost
	// What the power-loss recovery observed, for Result.
	nested             bool
	recoveryBoundaries int
	shadowNotes        []string
}

func newCtrl(cfg Config) (*memctrl.Controller, error) {
	return memctrl.New(config.TestSystem(), cfg.Mode, []byte("chaos-harness-key"),
		memctrl.Options{DisableShadowHalfRepair: cfg.BreakHalfRepair, Strategy: cfg.Strategy})
}

// newCtrlScenario builds the controller, its injector and the workload
// for cfg.
func newCtrlScenario(cfg Config) (*scenario, *ctrlStack, error) {
	ctrl, err := newCtrl(cfg)
	if err != nil {
		return nil, nil, err
	}
	var dataLines, faultCeil uint64
	if l := ctrl.Layout(); l != nil {
		dataLines = l.DataBlocks
		// Faults land anywhere below the shadow BMT (an SRAM stand-in).
		// Strategies without a shadow region leave ShadowTreeBase at 0;
		// their whole layout is fault-eligible.
		faultCeil = l.ShadowTreeBase
		if l.ShadowEntries == 0 {
			faultCeil = l.Total
		}
	} else {
		dataLines = ctrl.Device().Capacity() / nvm.LineSize
	}
	inj := NewInjector(ctrl.Device(), rand.New(rand.NewSource(cfg.Seed^0x5eedfa11)), cfg.FaultRate, faultCeil)
	inj.CrashAt = cfg.CrashAt
	ctrl.SetHook(inj)

	c := &ctrlStack{cfg: cfg, ctrl: ctrl, inj: inj}
	sc := newScenario(c, cfg.Seed, genOps(cfg.Seed, cfg.Writes, dataLines), 1, cfg.Logf)
	c.sc = sc
	// With random device faults (or deliberately broken recovery) reads
	// and ops may legitimately fail with a typed error; what is never
	// legitimate is wrong data without an error, or a panic.
	sc.errOK = cfg.FaultRate > 0 || cfg.BreakHalfRepair
	sc.lossOK = cfg.FaultRate > 0
	return sc, c, nil
}

// result is the controller's view of a run.
func (c *ctrlStack) result(r *DeviceResult) *Result {
	res := &Result{
		Boundaries:         r.Boundaries,
		RecoveryBoundaries: c.recoveryBoundaries,
		Crashed:            r.Crashed,
		CrashBoundary:      r.CrashBoundary,
		NestedCrashed:      c.nested,
		Faults:             c.inj.Applied,
		ShadowFaultNotes:   c.shadowNotes,
		OpErrors:           r.OpErrors,
		Violations:         r.Violations,
	}
	if r.Report != nil {
		res.Report = r.Report.Shards[0]
	}
	return res
}

func (c *ctrlStack) op(i int, k key, line *nvm.Line) {
	var got nvm.Line
	var err error
	if line == nil {
		got, err = c.read(k)
	} else {
		err = guard(func() (err error) {
			c.now, err = c.ctrl.WriteBlock(c.now, k.addr, line)
			return err
		})
	}
	c.sc.done(i, got, err)
}

func (c *ctrlStack) wait() {}

func (c *ctrlStack) read(k key) (got nvm.Line, err error) {
	err = guard(func() (err error) {
		got, c.now, err = c.ctrl.ReadBlock(c.now, k.addr)
		return err
	})
	return got, err
}

func (c *ctrlStack) boundaries() int { return c.inj.Boundary }
func (c *ctrlStack) disarm()         { c.inj.Disarm() }

func (c *ctrlStack) crash() error {
	// Tracked slots must be read before Crash wipes the volatile table
	// handle.
	c.tracked = c.ctrl.TrackedSlots()
	return c.ctrl.Crash()
}

// recover, after the workload's power loss, stops device faults, plants
// the shadow-entry faults and arms the nested crash; once injection is
// disarmed it is a plain guarded Recover.
func (c *ctrlStack) recover() (*device.RecoveryReport, error) {
	if c.inj.disarmed {
		return recoverCtrl(c.ctrl)
	}
	c.inj.StopFaults()
	if c.cfg.ShadowFaults > 0 && c.ctrl.Layout() != nil {
		c.applyShadowFaults()
	}
	c.inj.Rearm(c.cfg.NestedCrashAt)
	rep, err := recoverCtrl(c.ctrl)
	var pe *device.PowerError
	if errors.As(err, &pe) {
		c.nested = true
		c.sc.logf("nested power loss at recovery boundary %d", pe.Boundary)
		if err := c.ctrl.Crash(); err != nil {
			return nil, fmt.Errorf("Crash() during interrupted recovery: %w", err)
		}
		c.inj.Disarm()
		rep, err = recoverCtrl(c.ctrl)
	}
	c.recoveryBoundaries = c.inj.Boundary
	c.inj.Disarm()
	if err == nil && !c.cfg.BreakHalfRepair && len(c.shadowNotes) > 0 && rep.Shards[0].HalfRepairs == 0 {
		c.sc.res.violate("shadow faults injected (%v) but recovery performed no half repairs", c.shadowNotes)
	}
	return rep, err
}

// recoverCtrl runs Recover under guard, reported as a one-shard device.
func recoverCtrl(ctrl *memctrl.Controller) (*device.RecoveryReport, error) {
	var rep *memctrl.RecoveryReport
	err := guard(func() (err error) {
		rep, err = ctrl.Recover()
		return err
	})
	return &device.RecoveryReport{Shards: []*memctrl.RecoveryReport{rep}}, err
}

func (c *ctrlStack) flush() error {
	return guard(func() error {
		c.now = c.ctrl.FlushAll(c.now)
		return nil
	})
}

func (c *ctrlStack) verify() error      { return c.ctrl.VerifyAll() }
func (c *ctrlStack) extraChecks(string) {}

// applyShadowFaults kills one word of one half of cfg.ShadowFaults shadow
// entries, preferring slots that were actually tracking blocks at crash
// time so the fault hits an entry recovery needs.
func (c *ctrlStack) applyShadowFaults() {
	frng := rand.New(rand.NewSource(c.cfg.Seed ^ 0x0fa111))
	slots := c.tracked
	if len(slots) == 0 {
		for s := uint64(0); s < c.ctrl.Layout().ShadowEntries; s++ {
			slots = append(slots, s)
		}
	}
	frng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	n := c.cfg.ShadowFaults
	if n > len(slots) {
		n = len(slots)
	}
	for j := 0; j < n; j++ {
		slot := slots[j]
		word := 4*frng.Intn(2) + frng.Intn(4) // one word of one 32-byte half
		addr := c.ctrl.Layout().ShadowBase + slot*nvm.LineSize
		c.ctrl.Device().CorruptWord(addr, word)
		c.shadowNotes = append(c.shadowNotes, fmt.Sprintf("slot %d word %d (line %#x)", slot, word, addr))
	}
}
