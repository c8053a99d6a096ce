package chaos

import (
	"fmt"
	"strings"
	"sync"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

// DeviceInjector is the sharded-device counterpart of Injector: one
// device-wide write-boundary counter fed by per-shard hooks. Each shard
// gets its own hook (with its own SealTracker, since seal nesting
// is per-controller state), and the hooks funnel boundary crossings into
// this shared, mutex-guarded counter. Crashing "at boundary k" therefore
// means the k-th persistent write boundary the device as a whole crosses,
// whichever shard crosses it.
//
// Boundary numbering is deterministic exactly when the device's request
// order is — i.e. under the closed-loop drive DeviceRun uses. Concurrent
// drivers (the recovery tests in internal/device) still get a valid crash
// at *some* boundary; they must not assume which.
type DeviceInjector struct {
	mu         sync.Mutex
	boundary   int
	crashAt    int
	fired      bool
	firedShard int
	disarmed   bool
	// down, when set, reports the device down; boundaries crossed then (a
	// kill's crash and restart recovery) are neither counted nor armed.
	down func() bool
}

// NewDeviceInjector builds an injector that cuts power at the given
// device-wide boundary (negative: never).
func NewDeviceInjector(crashAt int) *DeviceInjector {
	return &DeviceInjector{crashAt: crashAt, firedShard: -1}
}

// ShardHooks returns one hook per shard, suitable for
// device.SetShardHooks. Each hook tracks its own shard's seal depth and
// reports boundary crossings to the shared counter.
func (in *DeviceInjector) ShardHooks(n int) []inject.Hook {
	hooks := make([]inject.Hook, n)
	for i := range hooks {
		hooks[i] = &deviceShardHook{in: in, shard: i}
	}
	return hooks
}

// Boundaries returns the number of boundaries counted so far.
func (in *DeviceInjector) Boundaries() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.boundary
}

// Fired reports whether the crash trigger went off, and on which shard.
func (in *DeviceInjector) Fired() (bool, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired, in.firedShard
}

// Disarm stops crash targeting; boundary counting continues.
func (in *DeviceInjector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disarmed = true
	in.crashAt = -1
}

// hit is called by a shard hook at each boundary crossing; it panics with
// inject.PowerLoss (unwinding that shard's in-flight operation) when the
// crossing is the armed one.
func (in *DeviceInjector) hit(shard int) {
	if in.down != nil && in.down() {
		return
	}
	in.mu.Lock()
	b := in.boundary
	in.boundary++
	fire := !in.disarmed && in.crashAt >= 0 && b == in.crashAt
	if fire {
		in.fired = true
		in.firedShard = shard
	}
	in.mu.Unlock()
	if fire {
		panic(inject.PowerLoss{Boundary: b})
	}
}

// deviceShardHook adapts one shard's event stream to the shared counter.
// It is only ever called under its shard's lock, so the seal tracker needs
// no locking of its own.
type deviceShardHook struct {
	in    *DeviceInjector
	shard int
	seals inject.SealTracker
}

// Event implements inject.Hook. Same ordering as Injector.Event: act
// before Advance so a panic at an outermost SealBegin leaves the tracker
// balanced.
func (h *deviceShardHook) Event(ev inject.Event) {
	if h.seals.IsBoundary(ev) {
		h.in.hit(h.shard)
	}
	h.seals.Advance(ev)
}

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

// DeviceResult is what one sharded-device scenario observed.
type DeviceResult struct {
	Boundaries    int
	Crashed       bool
	CrashBoundary int
	// CrashShard is the shard whose in-flight operation the power loss
	// unwound (-1 when no crash fired).
	CrashShard int
	Report     *device.RecoveryReport
	OpErrors   int
	Violations []string
}

func (r *DeviceResult) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Summary renders the outcome deterministically — crash coordinates,
// per-shard recovery accounting, every violation — so two runs of one
// repro line compare byte for byte.
func (r *DeviceResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "boundaries=%d crashed=%t crash-boundary=%d crash-shard=%d op-errors=%d\n",
		r.Boundaries, r.Crashed, r.CrashBoundary, r.CrashShard, r.OpErrors)
	if r.Report != nil {
		for i, sr := range r.Report.Shards {
			if sr == nil {
				fmt.Fprintf(&b, "shard %d: no report\n", i)
				continue
			}
			fmt.Fprintf(&b, "shard %d: %s\n", i, accounting(sr))
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	return b.String()
}

func accounting(r *memctrl.RecoveryReport) string {
	return fmt.Sprintf("tracked=%d recovered=%d failed=%d lost-slots=%d half-repairs=%d",
		r.TrackedEntries, r.RecoveredBlocks, len(r.FailedBlocks), len(r.LostSlots), r.HalfRepairs)
}

// DeviceRepro renders the cmd/chaos invocation that replays cfg. Every
// scenario-shaping parameter is on the line — including the strategy, so a
// repro printed by a -schemes or sweep run is self-contained.
func DeviceRepro(cfg DeviceConfig) string {
	cfg = cfg.normalized()
	return "go run ./cmd/chaos -device " + cfg.flags() + crashFlag(cfg.CrashAt)
}

// flags renders the device flags every device-backed leg's repro shares.
func (cfg DeviceConfig) flags() string {
	return fmt.Sprintf("-shards %d -seed %d -writes %d -mode %s -strategy %s",
		cfg.Shards, cfg.Seed, cfg.Writes, ModeFlag(cfg.Mode), cfg.Strategy)
}

// crashFlag renders a repro's crash point, "" for none.
func crashFlag(k int) string {
	if k < 0 {
		return ""
	}
	return fmt.Sprintf(" -crash-at %d", k)
}

// devStack drives the sharded device closed-loop: one request in flight
// device-wide, so boundary numbering is deterministic.
type devStack struct {
	dev *device.Device
	inj *DeviceInjector
	sc  *scenario
}

func newDevice(mode memctrl.Mode, shards int, strategy string) (*device.Device, error) {
	return device.New(device.Options{
		System: config.TestSystem(),
		Mode:   mode,
		Key:    []byte("chaos-harness-key"),
		Shards: shards,
		Ctrl:   memctrl.Options{Strategy: strategy},
	})
}

// newDeviceScenario builds the device, the injector and the workload over
// the device's global data space for cfg.
func newDeviceScenario(cfg DeviceConfig) (*scenario, *devStack, error) {
	cfg = cfg.normalized()
	dev, err := newDevice(cfg.Mode, cfg.Shards, cfg.Strategy)
	if err != nil {
		return nil, nil, err
	}
	d := &devStack{dev: dev, inj: NewDeviceInjector(cfg.CrashAt)}
	if err := dev.SetShardHooks(d.inj.ShardHooks(cfg.Shards)); err != nil {
		dev.Close()
		return nil, nil, err
	}
	ops := genOps(cfg.Seed, cfg.Writes, dev.Info().CapacityBytes/nvm.LineSize)
	d.sc = newScenario(d, cfg.Seed, ops, cfg.Shards, cfg.Logf)
	return d.sc, d, nil
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

func (d *devStack) wait()           {}
func (d *devStack) boundaries() int { return d.inj.Boundaries() }
func (d *devStack) disarm()         { d.inj.Disarm() }

// crash drops every shard's volatile state; after a power loss the device
// is already down with its epoch fenced.
func (d *devStack) crash() error { return d.dev.Crash() }

func (d *devStack) recover() (*device.RecoveryReport, error) {
	d.inj.Disarm()
	return d.dev.Recover()
}

func (d *devStack) flush() error       { return d.dev.Flush() }
func (d *devStack) verify() error      { return d.dev.VerifyAll() }
func (d *devStack) extraChecks(string) {}

// DeviceRun executes one scenario against the sharded device and checks
// the same invariants as Run: every committed write reads back after
// recovery, the one in-flight write is old-or-new, every shard's recovery
// report accounts for its tracked blocks, and a clean crash/recover
// round-trip on the settled image loses nothing.
func DeviceRun(cfg DeviceConfig) (*DeviceResult, error) {
	sc, d, err := newDeviceScenario(cfg)
	if err != nil {
		return nil, err
	}
	defer d.dev.Close()
	return sc.run(), nil
}

// DeviceCrashSweep probes the workload for its device-wide boundary
// count, then replays it crashing at every stride-th boundary — the
// sharded-device version of CrashSweep.
func DeviceCrashSweep(base DeviceConfig, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	base = base.normalized()
	header := fmt.Sprintf("device crash sweep: %d shards, ", base.Shards) + "%d workload boundaries, stride %d"
	return sweep(header, stride, logf, func(k int) (point, error) {
		cfg := base
		cfg.CrashAt = k
		res, err := DeviceRun(cfg)
		return res.sweepPoint(DeviceRepro(cfg), err)
	})
}

// sweepPoint is one device or tenant run as a sweep point.
func (r *DeviceResult) sweepPoint(repro string, err error) (point, error) {
	if err != nil {
		return point{}, err
	}
	return point{r.Boundaries, r.Crashed, repro, r.Violations}, nil
}
