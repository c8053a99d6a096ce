package chaos

import (
	"errors"
	"fmt"
	"sort"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/tenant"
)

// TenantConfig fully determines one multi-tenant chaos scenario: a tenant
// service over the sharded device, a deterministic workload
// interleaved round-robin across tenants, an optional online key rotation
// of tenant 1 beginning mid-workload, and a power cut at a chosen
// device-wide write boundary.
type TenantConfig struct {
	Seed   int64
	Writes int // workload operations (roughly 3/4 writes, 1/4 reads)
	// Tenants is the number of provisioned tenants (default 3).
	Tenants int
	Shards  int
	Mode    memctrl.Mode
	// Strategy selects the metadata-persistence scheme on every shard
	// (empty = memctrl.DefaultStrategy).
	Strategy string
	// LinesPerTenant sizes each tenant's extent (default 48).
	LinesPerTenant uint64
	// CrashAt cuts power at this device-wide write boundary; negative
	// never. Tenant-layer guard and registry writes cross boundaries like
	// any other line, so the sweep hits mid-protocol points for free.
	CrashAt int
	// RotateAt begins an online key rotation of tenant 1 before this
	// workload op, with sweep steps interleaved into the remaining ops;
	// negative disables. Crashing after RotateAt exercises the
	// mid-rotation recovery path.
	RotateAt int
	// Logf, when non-nil, receives per-phase progress lines.
	Logf func(format string, args ...any)
}

func (cfg TenantConfig) normalized() TenantConfig {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 3
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.Strategy == "" {
		cfg.Strategy = memctrl.DefaultStrategy
	}
	if cfg.LinesPerTenant == 0 {
		cfg.LinesPerTenant = 48
	}
	return cfg
}

// TenantRepro renders the cmd/chaos invocation that replays cfg.
func TenantRepro(cfg TenantConfig) string {
	cfg = cfg.normalized()
	s := fmt.Sprintf("go run ./cmd/chaos -tenants -tenant-count %d -shards %d -seed %d -writes %d -mode %s -strategy %s",
		cfg.Tenants, cfg.Shards, cfg.Seed, cfg.Writes, ModeFlag(cfg.Mode), cfg.Strategy)
	if cfg.RotateAt >= 0 {
		s += fmt.Sprintf(" -rotate-at %d", cfg.RotateAt)
	}
	if cfg.CrashAt >= 0 {
		s += fmt.Sprintf(" -crash-at %d", cfg.CrashAt)
	}
	return s
}

// tenantKey identifies one acknowledged write in the per-tenant oracle.
type tenantKey struct {
	tenant uint32
	addr   uint64
}

// tenantLineFor is the deterministic content of tenant t's i-th workload
// write (splitmix-style over seed, tenant and op index, like lineFor).
func tenantLineFor(seed int64, t uint32, i int) nvm.Line {
	var l nvm.Line
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(t)*0x94d049bb133111eb + uint64(i+1)*0xbf58476d1ce4e5b9
	for w := 0; w < nvm.LineSize/8; w++ {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		for b := 0; b < 8; b++ {
			l[w*8+b] = byte(x >> (8 * b))
		}
	}
	return l
}

// tenantHarness is one multi-tenant scenario in progress.
type tenantHarness struct {
	cfg  TenantConfig
	logf func(format string, args ...any)
	dev  *device.Device
	svc  *tenant.Service
	inj  *DeviceInjector
	ops  []wop // tenant-local addresses; op i belongs to tenant 1+i%T

	res          *DeviceResult
	committed    map[tenantKey]int
	inFlight     int
	inFlightKey  tenantKey
	crashOp      int
	rotating     bool // rotation of tenant 1 has begun
	rotationDone bool
}

func newTenantHarness(cfg TenantConfig) (*tenantHarness, error) {
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
	})
	if err != nil {
		return nil, err
	}
	inj := NewDeviceInjector(cfg.CrashAt)
	svc, err := tenant.New(dev, tenant.Options{MasterKey: []byte("chaos-tenant-master")})
	if err != nil {
		dev.Close()
		return nil, err
	}
	for t := 1; t <= cfg.Tenants; t++ {
		// Quota 0 (unlimited): the oracle wants every op admitted, and the
		// quota path has its own tests.
		if _, err := svc.Provision(uint32(t), cfg.LinesPerTenant, 0); err != nil {
			dev.Close()
			return nil, err
		}
	}
	// Hooks go in only after provisioning: the registry setup is the
	// fixture, the workload is the scenario, so boundary numbering starts
	// at the first workload write.
	if err := dev.SetShardHooks(inj.ShardHooks(cfg.Shards)); err != nil {
		dev.Close()
		return nil, err
	}
	return &tenantHarness{
		cfg:       cfg,
		logf:      logf,
		dev:       dev,
		svc:       svc,
		inj:       inj,
		ops:       genOps(cfg.Seed, cfg.Writes, cfg.LinesPerTenant),
		res:       &DeviceResult{CrashBoundary: -1, CrashShard: -1},
		committed: make(map[tenantKey]int),
		inFlight:  -1,
		crashOp:   -1,
	}, nil
}

func (h *tenantHarness) tenantOf(i int) uint32 {
	return uint32(1 + i%h.cfg.Tenants)
}

// runOp executes workload op i: the data op itself, preceded by the
// rotation kickoff at RotateAt and followed by a rotation sweep step
// while a rotation is in progress.
func (h *tenantHarness) runOp(i int) error {
	// ErrRotating is tolerated on the kickoff: a crash during the kickoff's
	// record persist may have landed the flag durably before the replay
	// re-runs this op.
	if h.cfg.RotateAt >= 0 && i == h.cfg.RotateAt && !h.rotating {
		if err := h.svc.Rotate(1); err != nil && !errors.Is(err, tenant.ErrRotating) {
			return fmt.Errorf("rotate kickoff: %w", err)
		}
		h.rotating = true
	}
	o := h.ops[i]
	t := h.tenantOf(i)
	var err error
	if o.kind == opWrite {
		line := tenantLineFor(h.cfg.Seed, t, i)
		_, err = h.svc.Write(t, o.addr, &line)
	} else {
		_, _, err = h.svc.Read(t, o.addr)
	}
	if err != nil {
		return err
	}
	if h.rotating && !h.rotationDone {
		_, done, serr := h.svc.RotateStep(1, 2)
		if serr != nil && !errors.Is(serr, tenant.ErrNotRotating) {
			return serr
		}
		if done {
			h.rotationDone = true
		}
	}
	return nil
}

// readCheck verifies every acknowledged write of every tenant reads back
// exactly; with inFlightExempt the one write interrupted by the crash may
// hold either its old or its new value.
func (h *tenantHarness) readCheck(phase string, inFlightExempt bool) {
	res := h.res
	keys := make([]tenantKey, 0, len(h.committed))
	for k := range h.committed {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tenant != keys[j].tenant {
			return keys[i].tenant < keys[j].tenant
		}
		return keys[i].addr < keys[j].addr
	})
	for _, k := range keys {
		got, _, rdErr := h.svc.Read(k.tenant, k.addr)
		if rdErr != nil {
			res.violate("%s: tenant %d read %#x (committed op %d) failed: %v",
				phase, k.tenant, k.addr, h.committed[k], rdErr)
			continue
		}
		want := tenantLineFor(h.cfg.Seed, k.tenant, h.committed[k])
		if inFlightExempt && h.inFlight >= 0 && k == h.inFlightKey {
			if got != want && got != tenantLineFor(h.cfg.Seed, k.tenant, h.inFlight) {
				res.violate("%s: tenant %d in-flight line %#x holds neither old (op %d) nor new (op %d)",
					phase, k.tenant, k.addr, h.committed[k], h.inFlight)
			}
			continue
		}
		if got != want {
			res.violate("%s: tenant %d silent corruption at %#x: committed op %d does not read back",
				phase, k.tenant, k.addr, h.committed[k])
		}
	}
	if inFlightExempt && h.inFlight >= 0 {
		if _, ok := h.committed[h.inFlightKey]; !ok {
			got, _, rdErr := h.svc.Read(h.inFlightKey.tenant, h.inFlightKey.addr)
			switch {
			case rdErr != nil:
				res.violate("%s: read in-flight tenant %d line %#x failed: %v",
					phase, h.inFlightKey.tenant, h.inFlightKey.addr, rdErr)
			case got != (nvm.Line{}) && got != tenantLineFor(h.cfg.Seed, h.inFlightKey.tenant, h.inFlight):
				res.violate("%s: in-flight cold line tenant %d %#x is neither zero nor the new value",
					phase, h.inFlightKey.tenant, h.inFlightKey.addr)
			}
		}
	}
}

// isolationCheck asserts that no tenant can open another tenant's lines:
// the cryptographic barrier (CrossCheck: foreign ciphertext must fail
// every admissible MAC) and the namespace barrier (out-of-extent
// addresses fail with a typed RangeError). Run at every crash point, it
// is the "no cross-tenant read ever succeeds" half of the oracle.
func (h *tenantHarness) isolationCheck(phase string) {
	res := h.res
	n := uint32(h.cfg.Tenants)
	for a := uint32(1); a <= n; a++ {
		v := a%n + 1
		for line := uint64(0); line < h.cfg.LinesPerTenant; line += 7 {
			if err := h.svc.CrossCheck(a, v, line*nvm.LineSize); err != nil {
				res.violate("%s: %v", phase, err)
			}
		}
		var re *tenant.RangeError
		if _, _, err := h.svc.Read(a, h.cfg.LinesPerTenant*nvm.LineSize); !errors.As(err, &re) {
			res.violate("%s: tenant %d out-of-extent read returned %v, want RangeError", phase, a, err)
		}
	}
}

// finishRotation drives tenant 1's rotation sweep to completion with
// injection disarmed (rotation must survive any crash and then complete).
func (h *tenantHarness) finishRotation() {
	if !h.rotating || h.rotationDone {
		return
	}
	for {
		_, done, err := h.svc.RotateStep(1, 16)
		if err != nil {
			if errors.Is(err, tenant.ErrNotRotating) {
				break
			}
			h.res.violate("rotation completion: %v", err)
			return
		}
		if done {
			break
		}
	}
	h.rotationDone = true
}

// run executes the scenario: the workload (with optional mid-workload
// rotation and crash), crash recovery through the service, the per-tenant
// acked-write oracle and the isolation oracle, rotation completion,
// replay of the interrupted tail, Flush + VerifyAll + per-tenant verify,
// a clean crash/recover round-trip, and a final strict check.
func (h *tenantHarness) run() (*DeviceResult, error) {
	cfg, res := h.cfg, h.res

	var powerErr *device.PowerError
	for i := 0; i < len(h.ops); i++ {
		opErr := h.runOp(i)
		if errors.As(opErr, &powerErr) {
			res.Crashed = true
			res.CrashBoundary = powerErr.Boundary
			res.CrashShard = powerErr.Shard
			h.crashOp = i
			if h.ops[i].kind == opWrite {
				h.inFlight = i
				h.inFlightKey = tenantKey{h.tenantOf(i), h.ops[i].addr}
			}
			break
		}
		if opErr != nil {
			res.OpErrors++
			res.violate("op %d (tenant %d %v %#x): unexpected error: %v",
				i, h.tenantOf(i), h.ops[i].kind, h.ops[i].addr, opErr)
			continue
		}
		if h.ops[i].kind == opWrite {
			h.committed[tenantKey{h.tenantOf(i), h.ops[i].addr}] = i
		}
	}
	res.Boundaries = h.inj.Boundaries()

	if res.Crashed {
		h.logf("power loss at device boundary %d (op %d, shard %d)", res.CrashBoundary, h.crashOp, res.CrashShard)
		if err := h.svc.Crash(); err != nil {
			res.violate("Crash() after power loss: %v", err)
			return res, nil
		}
		h.inj.Disarm()
		rep, rerr := h.svc.Recover()
		if rerr != nil {
			res.violate("Recover failed: %v", rerr)
			return res, nil
		}
		res.Report = rep
		for sid, sr := range rep.Shards {
			if sr == nil {
				res.violate("shard %d: recovery report missing", sid)
				continue
			}
			for _, fb := range sr.FailedBlocks {
				res.violate("shard %d: recovery lost tracked block %#x: %s", sid, fb.Addr, fb.Reason)
			}
			for _, slot := range sr.LostSlots {
				res.violate("shard %d: recovery lost shadow slot %d entirely", sid, slot)
			}
		}
		// The crash may have landed mid-rotation; the persisted epoch and
		// Rotating flag decide, not our volatile belief.
		if h.rotating {
			st, err := h.svc.RotateStatus(1)
			if err != nil {
				res.violate("RotateStatus after recovery: %v", err)
			} else {
				h.rotationDone = !st.Rotating
			}
		}
		h.readCheck("post-recovery", true)
		h.isolationCheck("post-recovery")
		h.finishRotation()
		// Replay the interrupted operation and the rest of the workload.
		for i := h.crashOp; i >= 0 && i < len(h.ops); i++ {
			if opErr := h.runOp(i); opErr != nil {
				res.OpErrors++
				res.violate("replay op %d (tenant %d %v %#x): unexpected error: %v",
					i, h.tenantOf(i), h.ops[i].kind, h.ops[i].addr, opErr)
				continue
			}
			if h.ops[i].kind == opWrite {
				h.committed[tenantKey{h.tenantOf(i), h.ops[i].addr}] = i
			}
		}
	} else {
		h.inj.Disarm()
		h.readCheck("post-workload", false)
		h.isolationCheck("post-workload")
	}
	h.finishRotation()
	if cfg.RotateAt >= 0 && cfg.RotateAt < len(h.ops) {
		st, err := h.svc.RotateStatus(1)
		switch {
		case err != nil:
			res.violate("final RotateStatus: %v", err)
		case st.Rotating:
			res.violate("rotation never completed (cursor %d of %d)", st.Cursor, st.DataLines)
		case st.Epoch != 2:
			res.violate("tenant 1 epoch %d after one rotation, want 2", st.Epoch)
		}
	}

	// Settle and verify: the device's own integrity sweep, then every
	// tenant's MACs under its current epochs.
	if err := h.svc.Flush(); err != nil {
		res.violate("Flush: %v", err)
		return res, nil
	}
	if err := h.svc.VerifyAll(); err != nil {
		res.violate("VerifyAll after replay: %v", err)
	}
	for t := 1; t <= cfg.Tenants; t++ {
		if err := h.svc.VerifyTenant(uint32(t)); err != nil {
			res.violate("VerifyTenant(%d): %v", t, err)
		}
	}

	// A clean crash/recover round-trip on the flushed image must be
	// lossless for every tenant.
	if err := h.svc.Crash(); err != nil {
		res.violate("clean-round Crash: %v", err)
	} else {
		rep, err := h.svc.Recover()
		switch {
		case err != nil:
			res.violate("clean-round Recover: %v", err)
		case !rep.Clean():
			res.violate("clean-round recovery lost blocks: %d failed, %d lost slots",
				rep.FailedBlocks(), rep.LostSlots())
		}
	}
	h.readCheck("final", false)
	h.isolationCheck("final")
	return res, nil
}

// TenantRun executes one multi-tenant scenario closed-loop and checks the
// per-tenant acknowledged-write oracle, the cross-tenant isolation
// oracle, and rotation completion under crashes.
func TenantRun(cfg TenantConfig) (*DeviceResult, error) {
	h, err := newTenantHarness(cfg)
	if err != nil {
		return nil, err
	}
	defer h.dev.Close()
	return h.run()
}

// TenantCrashSweep probes the workload for its boundary count, then
// replays it crashing at every stride-th boundary — including, when
// RotateAt is set, the boundaries inside the rotation window.
func TenantCrashSweep(base TenantConfig, stride int, logf func(string, ...any)) (*CampaignResult, error) {
	if stride <= 0 {
		stride = 1
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	probe := base
	probe.CrashAt = -1
	pres, err := TenantRun(probe)
	if err != nil {
		return nil, err
	}
	out := &CampaignResult{Boundaries: pres.Boundaries}
	out.collectTenant(probe, pres)
	logf("tenant crash sweep: %d tenants, %d shards, %d workload boundaries, stride %d",
		base.normalized().Tenants, base.normalized().Shards, pres.Boundaries, stride)
	for k := 0; k < pres.Boundaries; k += stride {
		cfg := base
		cfg.CrashAt = k
		res, err := TenantRun(cfg)
		if err != nil {
			return nil, err
		}
		if !res.Crashed {
			logf("note: crash-at %d never fired (run saw %d boundaries)", k, res.Boundaries)
		}
		out.collectTenant(cfg, res)
	}
	return out, nil
}

func (c *CampaignResult) collectTenant(cfg TenantConfig, res *DeviceResult) {
	c.Runs++
	if len(res.Violations) > 0 {
		c.Failures = append(c.Failures, Failure{Repro: TenantRepro(cfg), Violations: res.Violations})
	}
}

// TenantConformance runs the tenant crash sweep — rotation window armed,
// so mid-rotation crash points are part of the sweep — for one strategy.
func TenantConformance(strategy string, cfg TenantConfig, stride int) (*CampaignResult, error) {
	cfg.Strategy = strategy
	return TenantCrashSweep(cfg, stride, cfg.Logf)
}

// TenantConformanceAll runs the tenant sweep across every registered
// metadata-persistence strategy.
func TenantConformanceAll(cfg TenantConfig, stride int) (map[string]*CampaignResult, error) {
	out := make(map[string]*CampaignResult, len(memctrl.Strategies()))
	for _, strategy := range memctrl.Strategies() {
		res, err := TenantConformance(strategy, cfg, stride)
		if err != nil {
			return nil, err
		}
		out[strategy] = res
	}
	return out, nil
}
