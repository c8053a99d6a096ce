package chaos

import (
	"errors"
	"fmt"
	"sort"
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

// Preset seeds the boundary counter. Time-travel replay starts from a
// restored checkpoint that had already crossed that many boundaries, so
// the counter must resume there for the armed crash point to keep its
// original meaning.
func (in *DeviceInjector) Preset(boundary int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.boundary = boundary
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
// per-shard recovery accounting, every violation. A time-travel replay is
// correct exactly when its Summary matches the original run's byte for
// byte, which is what the replay tests assert.
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
			fmt.Fprintf(&b, "shard %d: tracked=%d recovered=%d failed=%d lost-slots=%d half-repairs=%d\n",
				i, sr.TrackedEntries, sr.RecoveredBlocks, len(sr.FailedBlocks), len(sr.LostSlots), sr.HalfRepairs)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "violation: %s\n", v)
	}
	return b.String()
}

// DeviceRepro renders the cmd/chaos invocation that replays cfg. Every
// scenario-shaping parameter is on the line — including the strategy, so a
// repro printed by a -schemes or sweep run is self-contained.
func DeviceRepro(cfg DeviceConfig) string {
	cfg = cfg.normalized()
	s := fmt.Sprintf("go run ./cmd/chaos -device -shards %d -seed %d -writes %d -mode %s -strategy %s",
		cfg.Shards, cfg.Seed, cfg.Writes, ModeFlag(cfg.Mode), cfg.Strategy)
	if cfg.CrashAt >= 0 {
		s += fmt.Sprintf(" -crash-at %d", cfg.CrashAt)
	}
	return s
}

// deviceHarness is one sharded-device scenario in progress: the device,
// the boundary-counting injector, the deterministic workload, and the
// acknowledged-write oracle. DeviceRun drives it from op
// 0; DeviceReplay restores a checkpoint and drives it from the middle.
type deviceHarness struct {
	cfg  DeviceConfig
	logf func(format string, args ...any)
	dev  *device.Device
	inj  *DeviceInjector
	ops  []wop

	res          *DeviceResult
	committed    map[uint64]int // addr -> op index of last durable write
	inFlight     int            // op index interrupted by the crash, when a write
	inFlightAddr uint64
	crashOp      int
}

// newDeviceHarness builds the device, the workload and the injector for
// cfg. trace enables the device's canonical event trace
// (needed when the run is recorded for replay).
func newDeviceHarness(cfg DeviceConfig, trace bool) (*deviceHarness, error) {
	cfg = cfg.normalized()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dev, err := device.New(device.Options{
		System: config.TestSystem(),
		Mode:   cfg.Mode,
		Key:    []byte("chaos-harness-key"),
		Shards: cfg.Shards,
		Ctrl:   memctrl.Options{Strategy: cfg.Strategy},
		Trace:  trace,
	})
	if err != nil {
		return nil, err
	}

	// Deterministic workload over the device's global data space, same
	// shape as the single-controller harness.
	dataLines := dev.Info().CapacityBytes / nvm.LineSize
	ops := genOps(cfg.Seed, cfg.Writes, dataLines)

	inj := NewDeviceInjector(cfg.CrashAt)
	if err := dev.SetShardHooks(inj.ShardHooks(cfg.Shards)); err != nil {
		return nil, err
	}
	return &deviceHarness{
		cfg:  cfg,
		logf: logf,
		dev:  dev,
		inj:  inj,
		ops:  ops,
		res:  &DeviceResult{CrashBoundary: -1, CrashShard: -1},

		committed: make(map[uint64]int),
		inFlight:  -1,
		crashOp:   -1,
	}, nil
}

func (h *deviceHarness) runOp(i int) error {
	o := h.ops[i]
	if o.kind == opWrite {
		line := lineFor(h.cfg.Seed, i)
		_, err := h.dev.Write(o.addr, &line)
		return err
	}
	_, _, err := h.dev.Read(o.addr)
	return err
}

// run executes the scenario from workload op start: the (remaining)
// workload with optional crash, recovery with report checks, post-recovery
// read-back with an old-or-new exemption for the one in-flight write,
// replay of the interrupted tail, Flush + VerifyAll, a clean crash/recover
// round-trip, and a final strict read-back.
//
// When ckptEvery > 0, onCkpt is invoked before every ckptEvery-th workload
// op until the crash fires — the recording side of time-travel replay. The
// closed-loop drive guarantees the device is at an op boundary there, so
// Device.Checkpoint always succeeds.
func (h *deviceHarness) run(start, ckptEvery int, onCkpt func(op int) error) (*DeviceResult, error) {
	cfg, res := h.cfg, h.res

	var powerErr *device.PowerError
	for i := start; i < len(h.ops); i++ {
		if ckptEvery > 0 && (i-start)%ckptEvery == 0 {
			if err := onCkpt(i); err != nil {
				return nil, err
			}
		}
		opErr := h.runOp(i)
		if errors.As(opErr, &powerErr) {
			res.Crashed = true
			res.CrashBoundary = powerErr.Boundary
			res.CrashShard = powerErr.Shard
			h.crashOp = i
			if h.ops[i].kind == opWrite {
				h.inFlight = i
				h.inFlightAddr = h.ops[i].addr
			}
			break
		}
		if opErr != nil {
			res.OpErrors++
			res.violate("op %d (%v %#x): unexpected error: %v", i, h.ops[i].kind, h.ops[i].addr, opErr)
			continue
		}
		if h.ops[i].kind == opWrite {
			h.committed[h.ops[i].addr] = i
		}
	}
	res.Boundaries = h.inj.Boundaries()

	if res.Crashed {
		h.logf("power loss at device boundary %d (op %d, shard %d)", res.CrashBoundary, h.crashOp, res.CrashShard)
		// The power loss already took the device down and fenced the
		// epoch; Crash() drops every shard's volatile state.
		if err := h.dev.Crash(); err != nil {
			res.violate("Crash() after power loss: %v", err)
			return res, nil
		}
		h.inj.Disarm()
		rep, rerr := h.dev.Recover()
		if rerr != nil {
			res.violate("Recover failed: %v", rerr)
			return res, nil
		}
		res.Report = rep
		if len(rep.Shards) != cfg.Shards {
			res.violate("recovery report covers %d of %d shards", len(rep.Shards), cfg.Shards)
		}
		for sid, sr := range rep.Shards {
			if sr == nil {
				res.violate("shard %d: recovery report missing", sid)
				continue
			}
			if sr.RecoveredBlocks+len(sr.FailedBlocks) > sr.TrackedEntries {
				res.violate("shard %d report accounting: %d recovered + %d failed > %d tracked",
					sid, sr.RecoveredBlocks, len(sr.FailedBlocks), sr.TrackedEntries)
			}
			// Crash-only scenario: every tracked block must come back.
			for _, fb := range sr.FailedBlocks {
				res.violate("shard %d: recovery lost tracked block %#x: %s", sid, fb.Addr, fb.Reason)
			}
			for _, s := range sr.LostSlots {
				res.violate("shard %d: recovery lost shadow slot %d entirely", sid, s)
			}
		}
	} else {
		h.inj.Disarm()
	}

	if res.Crashed {
		h.readCheck("post-recovery", true)
		// Replay the interrupted operation and the rest of the workload
		// with injection disarmed.
		for i := h.crashOp; i >= 0 && i < len(h.ops); i++ {
			if opErr := h.runOp(i); opErr != nil {
				res.OpErrors++
				res.violate("replay op %d (%v %#x): unexpected error: %v", i, h.ops[i].kind, h.ops[i].addr, opErr)
				continue
			}
			if h.ops[i].kind == opWrite {
				h.committed[h.ops[i].addr] = i
			}
		}
	} else {
		h.readCheck("post-workload", false)
	}

	// Settle and verify every shard's full image.
	if err := h.dev.Flush(); err != nil {
		res.violate("Flush: %v", err)
		return res, nil
	}
	if err := h.dev.VerifyAll(); err != nil {
		res.violate("VerifyAll after replay: %v", err)
	}

	// A clean crash/recover round-trip on the flushed image must be
	// lossless on every shard.
	if err := h.dev.Crash(); err != nil {
		res.violate("clean-round Crash: %v", err)
	} else {
		rep, err := h.dev.Recover()
		switch {
		case err != nil:
			res.violate("clean-round Recover: %v", err)
		case !rep.Clean():
			res.violate("clean-round recovery lost blocks: %d failed, %d lost slots",
				rep.FailedBlocks(), rep.LostSlots())
		}
	}
	h.readCheck("final", false)
	return res, nil
}

// readCheck verifies every committed write reads back; with inFlightExempt
// the one write interrupted by the crash may hold either its old or its
// new value.
func (h *deviceHarness) readCheck(phase string, inFlightExempt bool) {
	res := h.res
	addrs := make([]uint64, 0, len(h.committed))
	for a := range h.committed {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		got, _, rdErr := h.dev.Read(a)
		if rdErr != nil {
			res.violate("%s: read %#x (committed op %d) failed: %v", phase, a, h.committed[a], rdErr)
			continue
		}
		want := lineFor(h.cfg.Seed, h.committed[a])
		if inFlightExempt && h.inFlight >= 0 && a == h.inFlightAddr {
			if got != want && got != lineFor(h.cfg.Seed, h.inFlight) {
				res.violate("%s: in-flight block %#x holds neither the old value (op %d) nor the new (op %d)",
					phase, a, h.committed[a], h.inFlight)
			}
			continue
		}
		if got != want {
			res.violate("%s: silent corruption at %#x: committed op %d does not read back", phase, a, h.committed[a])
		}
	}
	if inFlightExempt && h.inFlight >= 0 {
		if _, ok := h.committed[h.inFlightAddr]; !ok {
			got, _, rdErr := h.dev.Read(h.inFlightAddr)
			switch {
			case rdErr != nil:
				res.violate("%s: read in-flight %#x failed: %v", phase, h.inFlightAddr, rdErr)
			case got != (nvm.Line{}) && got != lineFor(h.cfg.Seed, h.inFlight):
				res.violate("%s: in-flight cold block %#x is neither zero nor the new value", phase, h.inFlightAddr)
			}
		}
	}
}

// DeviceRun executes one scenario against the sharded device,
// closed-loop (one request in flight device-wide, so boundary
// numbering is deterministic), and checks the same invariants as Run:
// every committed write reads back after recovery, the one in-flight write
// is old-or-new, every shard's recovery report accounts for its tracked
// blocks, and a clean crash/recover round-trip on the settled image loses
// nothing.
func DeviceRun(cfg DeviceConfig) (*DeviceResult, error) {
	h, err := newDeviceHarness(cfg, false)
	if err != nil {
		return nil, err
	}
	defer h.dev.Close()
	return h.run(0, 0, nil)
}

// DeviceCrashSweep probes the workload for its device-wide boundary
// count, then replays it crashing at every stride-th boundary — the
// sharded-device version of CrashSweep.
func DeviceCrashSweep(base DeviceConfig, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	if stride <= 0 {
		stride = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	probe := base
	probe.CrashAt = -1
	pres, err := DeviceRun(probe)
	if err != nil {
		return nil, err
	}
	out := &CampaignResult{Boundaries: pres.Boundaries}
	out.collectDevice(probe, pres)
	logf("device crash sweep: %d shards, %d workload boundaries, stride %d", base.Shards, pres.Boundaries, stride)
	for k := 0; k < pres.Boundaries; k += stride {
		cfg := base
		cfg.CrashAt = k
		res, err := DeviceRun(cfg)
		if err != nil {
			return nil, err
		}
		if !res.Crashed {
			logf("note: crash-at %d never fired (run saw %d boundaries)", k, res.Boundaries)
		}
		out.collectDevice(cfg, res)
	}
	return out, nil
}

func (c *CampaignResult) collectDevice(cfg DeviceConfig, res *DeviceResult) {
	c.Runs++
	if len(res.Violations) > 0 {
		c.Failures = append(c.Failures, Failure{Repro: DeviceRepro(cfg), Violations: res.Violations})
	}
}
