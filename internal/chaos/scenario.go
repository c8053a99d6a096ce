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

// ctrlStack drives one bare memctrl.Controller. It owns sim time and the
// PowerLoss guard, and the recovery that follows the workload's power loss
// is where shadow-entry faults land and a nested power loss may cut in.
type ctrlStack struct {
	cfg     Config
	sc      *scenario
	ctrl    *memctrl.Controller
	now     sim.Time
	tracked []uint64 // shadow slots in use when power was lost
}

func newCtrl(cfg Config) (*memctrl.Controller, error) {
	return memctrl.New(config.TestSystem(), cfg.Mode, []byte("chaos-harness-key"),
		memctrl.Options{DisableShadowHalfRepair: cfg.BreakHalfRepair, Strategy: cfg.Strategy})
}

// Repro renders the cmd/chaos invocation that replays cfg exactly. Every
// parameter that shapes the scenario (seed, crash points, fault schedule)
// is on the line, so a reported failure is a one-command repro.
func (cfg Config) Repro() string {
	strategy := cfg.Strategy
	if strategy == "" {
		strategy = memctrl.DefaultStrategy
	}
	s := fmt.Sprintf("go run ./cmd/chaos -seed %d -writes %d -mode %s -strategy %s",
		cfg.Seed, cfg.Writes, ModeFlag(cfg.Mode), strategy) + crashFlag(cfg.CrashAt)
	if cfg.NestedCrashAt >= 0 {
		s += fmt.Sprintf(" -crash-at2 %d", cfg.NestedCrashAt)
	}
	if cfg.FaultRate > 0 {
		s += fmt.Sprintf(" -fault-rate %v", cfg.FaultRate)
	}
	if cfg.ShadowFaults > 0 {
		s += fmt.Sprintf(" -shadow-faults %d", cfg.ShadowFaults)
	}
	if cfg.BreakHalfRepair {
		if cfg.CrashAt < 0 {
			// Without a crash point cmd/chaos reads -break-half-repair
			// as "run the shadow campaign"; an explicit -crash-at -1
			// keeps the line a single run.
			s += " -crash-at -1"
		}
		s += " -break-half-repair"
	}
	return s
}

func (cfg Config) header() string { return "crash sweep: %d workload boundaries, stride %d" }

// crashingAt also clears the nested crash: a sweep's runs crash once.
func (cfg Config) crashingAt(k int) Target {
	cfg.CrashAt, cfg.NestedCrashAt = k, -1
	return cfg
}

// build makes the controller, its injector — the one that carries the
// seeded fault schedule — and the workload for cfg.
func (cfg Config) build() (*scenario, error) {
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
	ctrl, err := newCtrl(cfg)
	if err != nil {
		return nil, err
	}
	var dataLines uint64
	if l := ctrl.Layout(); l != nil {
		dataLines = l.DataBlocks
	} else {
		dataLines = ctrl.Device().Capacity() / nvm.LineSize
	}
	inj := NewInjector(cfg.CrashAt)
	inj.dev, inj.rng, inj.faultRate = ctrl.Device(), rand.New(rand.NewSource(cfg.Seed^0x5eedfa11)), cfg.FaultRate
	ctrl.SetHook(inj.ShardHooks(1)[0])

	c := &ctrlStack{cfg: cfg, ctrl: ctrl}
	c.sc = newScenario(c, inj, cfg.Seed, genOps(cfg.Seed, cfg.Writes, dataLines), 1, cfg.Logf)
	// With random device faults (or deliberately broken recovery) reads
	// and ops may legitimately fail with a typed error; what is never
	// legitimate is wrong data without an error, or a panic.
	c.sc.errOK = cfg.FaultRate > 0 || cfg.BreakHalfRepair
	c.sc.lossOK = cfg.FaultRate > 0
	return c.sc, nil
}

func (c *ctrlStack) op(_ int, k key, line *nvm.Line) (nvm.Line, error) {
	if line == nil {
		return c.read(k)
	}
	return nvm.Line{}, guard(func() (err error) {
		c.now, err = c.ctrl.WriteBlock(c.now, k.Addr, line)
		return err
	})
}

func (c *ctrlStack) wait() {}

func (c *ctrlStack) read(k key) (got nvm.Line, err error) {
	err = guard(func() (err error) {
		got, c.now, err = c.ctrl.ReadBlock(c.now, k.Addr)
		return err
	})
	return got, err
}

func (c *ctrlStack) crash() error {
	// Tracked slots must be read before Crash wipes the volatile table
	// handle.
	c.tracked = c.ctrl.TrackedSlots()
	return c.ctrl.Crash()
}

// recover, after the workload's power loss, plants the shadow-entry
// faults and arms the nested crash; once injection is disarmed it is a
// plain guarded Recover.
func (c *ctrlStack) recover() (*device.RecoveryReport, error) {
	inj, res := c.sc.inj, c.sc.res
	if inj.disarmed {
		return recoverCtrl(c.ctrl)
	}
	if c.cfg.ShadowFaults > 0 && c.ctrl.Layout() != nil {
		c.applyShadowFaults()
	}
	inj.Rearm(c.cfg.NestedCrashAt)
	rep, err := recoverCtrl(c.ctrl)
	var pe *device.PowerError
	if errors.As(err, &pe) {
		res.NestedCrashed = true
		c.sc.logf("nested power loss at recovery boundary %d", pe.Boundary)
		if err := c.ctrl.Crash(); err != nil {
			return nil, fmt.Errorf("Crash() during interrupted recovery: %w", err)
		}
		inj.Disarm()
		rep, err = recoverCtrl(c.ctrl)
	}
	res.RecoveryBoundaries = inj.Boundaries()
	inj.Disarm()
	if err == nil && !c.cfg.BreakHalfRepair && len(res.ShadowFaultNotes) > 0 && rep.Shards[0].HalfRepairs == 0 {
		res.violate("shadow faults injected (%v) but recovery performed no half repairs", res.ShadowFaultNotes)
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
func (c *ctrlStack) close()             {}

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
		c.sc.res.ShadowFaultNotes = append(c.sc.res.ShadowFaultNotes, fmt.Sprintf("slot %d word %d (line %#x)", slot, word, addr))
	}
}
