package chaos

import (
	"fmt"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

// DeviceConfig fully determines one sharded-device chaos scenario.
// Nested crash-during-recovery sweeps stay on the single-controller
// harness (Config.NestedCrashAt).
type DeviceConfig struct {
	Seed   int64
	Writes int // workload operations (roughly 3/4 writes, 1/4 reads)
	Shards int
	Mode   memctrl.Mode
	// Strategy selects the metadata-persistence scheme on every shard
	// (empty = memctrl.DefaultStrategy).
	Strategy string
	// CrashAt cuts power at this device-wide write boundary; negative
	// never.
	CrashAt int
	// Logf, when non-nil, receives per-phase progress lines.
	Logf func(format string, args ...any)
}

// normalized fills defaults so that the config on a repro line names the
// scenario exactly (a defaulted field and its explicit value replay the
// same run).
func (cfg DeviceConfig) normalized() DeviceConfig {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Strategy == "" {
		cfg.Strategy = memctrl.DefaultStrategy
	}
	return cfg
}

// Repro names the strategy even when it is defaulted, so a repro printed
// by a -schemes or sweep run is self-contained.
func (cfg DeviceConfig) Repro() string {
	return "go run ./cmd/chaos -device " + cfg.normalized().flags() + crashFlag(cfg.CrashAt)
}

// flags renders the device flags every device-backed leg's repro shares.
func (cfg DeviceConfig) flags() string {
	return fmt.Sprintf("-shards %d -seed %d -writes %d -mode %s -strategy %s",
		cfg.Shards, cfg.Seed, cfg.Writes, ModeFlag(cfg.Mode), cfg.Strategy)
}

func (cfg DeviceConfig) header() string {
	return fmt.Sprintf("device crash sweep: %d shards, ", cfg.normalized().Shards) + "%d workload boundaries, stride %d"
}

func (cfg DeviceConfig) crashingAt(k int) Target {
	cfg.CrashAt = k
	return cfg
}

// build makes the device, the injector and the workload over the device's
// global data space.
func (cfg DeviceConfig) build() (*scenario, error) {
	cfg = cfg.normalized()
	d, err := newDevStack(cfg)
	if err != nil {
		return nil, err
	}
	inj, err := d.arm(cfg)
	if err != nil {
		return nil, err
	}
	ops := genOps(cfg.Seed, cfg.Writes, d.dev.Info().CapacityBytes/nvm.LineSize)
	d.sc = newScenario(d, inj, cfg.Seed, ops, cfg.Shards, cfg.Logf)
	return d.sc, nil
}

// devStack drives the sharded device closed-loop: one request in flight
// device-wide, so boundary numbering is deterministic.
type devStack struct {
	dev *device.Device
	sc  *scenario
}

// newDevStack builds the normalized cfg's device, without hooks.
func newDevStack(cfg DeviceConfig) (*devStack, error) {
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   cfg.Mode,
		Key:    []byte("chaos-harness-key"),
		Shards: cfg.Shards,
		Ctrl:   memctrl.Options{Strategy: cfg.Strategy},
	})
	return &devStack{dev: dev}, err
}

// arm installs an injector crashing at cfg.CrashAt on every shard, and
// closes the device if it cannot.
func (d *devStack) arm(cfg DeviceConfig) (*Injector, error) {
	inj := NewInjector(cfg.CrashAt)
	if err := d.dev.SetShardHooks(inj.ShardHooks(cfg.Shards)); err != nil {
		d.close()
		return nil, err
	}
	return inj, nil
}

func (d *devStack) op(_ int, k key, line *nvm.Line) (nvm.Line, error) {
	if line == nil {
		return d.read(k)
	}
	_, err := d.dev.Write(k.Addr, line)
	return nvm.Line{}, err
}

func (d *devStack) read(k key) (nvm.Line, error) {
	got, _, err := d.dev.Read(k.Addr)
	return got, err
}

func (d *devStack) wait() {}

// crash drops every shard's volatile state; after a power loss the device
// is already down with its epoch fenced.
func (d *devStack) crash() error { return d.dev.Crash() }

func (d *devStack) recover() (*device.RecoveryReport, error) {
	d.sc.inj.Disarm()
	return d.dev.Recover()
}

func (d *devStack) flush() error       { return d.dev.Flush() }
func (d *devStack) verify() error      { return d.dev.VerifyAll() }
func (d *devStack) extraChecks(string) {}
func (d *devStack) close()             { d.dev.Close() }
