package chaos

import (
	"fmt"
	"sort"

	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/sim"
)

// replayVersion is bumped on any change to the ReplayTrace layout.
const replayVersion = 1

// ReplayTrace is the time-travel record of one crashed sharded-device
// scenario: the full scenario config, the device checkpoint taken nearest
// before the fault, the oracle state at that checkpoint, and the canonical
// event trace of the original run. DeviceReplay restores the checkpoint
// and re-executes the workload from there; because the device is
// deterministic, the replay crosses the same boundaries, crashes at the
// same event and produces a byte-identical failure Summary.
type ReplayTrace struct {
	// Cfg names the scenario (Logf is not serialized).
	Cfg DeviceConfig
	// CrashOp is the workload op index the power loss interrupted.
	CrashOp int
	// CkptOp is the workload op index at which Ckpt was taken (always
	// <= CrashOp: recording stops at the crash).
	CkptOp int
	// CkptBoundary is the device-wide write-boundary count at the
	// checkpoint; the replay injector resumes numbering there.
	CkptBoundary int
	// CkptOpErrors, CkptViolations and CkptCommitted restore the oracle
	// state accumulated before the checkpoint.
	CkptOpErrors   int
	CkptViolations []string
	CkptCommitted  map[uint64]int
	// Ckpt is the sealed device.Device checkpoint.
	Ckpt []byte
	// Events is the canonical event trace of the full original run
	// (per-shard dispatch streams concatenated in shard order).
	Events []device.TraceEvent
}

// Encode seals the trace for storage (cmd/chaos -replay reads it back).
func (t *ReplayTrace) Encode() []byte {
	w := &sim.SnapW{}
	w.I64(t.Cfg.Seed)
	w.U32(uint32(t.Cfg.Writes))
	w.U32(uint32(t.Cfg.Shards))
	w.U8(uint8(t.Cfg.Mode))
	w.String(t.Cfg.Strategy)
	w.I64(int64(t.Cfg.CrashAt))
	w.I64(int64(t.CrashOp))
	w.U32(uint32(t.CkptOp))
	w.U32(uint32(t.CkptBoundary))
	w.U32(uint32(t.CkptOpErrors))
	w.U32(uint32(len(t.CkptViolations)))
	for _, v := range t.CkptViolations {
		w.String(v)
	}
	addrs := make([]uint64, 0, len(t.CkptCommitted))
	for a := range t.CkptCommitted {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	w.U32(uint32(len(addrs)))
	for _, a := range addrs {
		w.U64(a)
		w.U32(uint32(t.CkptCommitted[a]))
	}
	w.Bytes(t.Ckpt)
	device.AppendTrace(w, t.Events)
	return sim.Seal(sim.SnapKindTrace, replayVersion, w.Data())
}

// DecodeReplayTrace is the inverse of Encode. Corrupted or truncated input
// returns an error, never a panic, and never a partially filled trace.
func DecodeReplayTrace(data []byte) (*ReplayTrace, error) {
	payload, err := sim.Open(sim.SnapKindTrace, replayVersion, data)
	if err != nil {
		return nil, err
	}
	r := sim.NewSnapR(payload)
	t := &ReplayTrace{}
	t.Cfg.Seed = r.I64()
	t.Cfg.Writes = int(r.U32())
	t.Cfg.Shards = int(r.U32())
	t.Cfg.Mode = memctrl.Mode(r.U8())
	t.Cfg.Strategy = r.String()
	t.Cfg.CrashAt = int(r.I64())
	t.CrashOp = int(r.I64())
	t.CkptOp = int(r.U32())
	t.CkptBoundary = int(r.U32())
	t.CkptOpErrors = int(r.U32())
	nv := r.Count(4)
	if nv > 0 {
		t.CkptViolations = make([]string, nv)
		for i := range t.CkptViolations {
			t.CkptViolations[i] = r.String()
		}
	}
	nc := r.Count(8 + 4)
	t.CkptCommitted = make(map[uint64]int, nc)
	for i := 0; i < nc; i++ {
		a := r.U64()
		t.CkptCommitted[a] = int(r.U32())
	}
	t.Ckpt = append([]byte(nil), r.Bytes()...)
	t.Events = device.ReadTrace(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return t, nil
}

// DeviceRunTraced runs one scenario with event tracing and periodic
// checkpoints. When the scenario crashes, the returned ReplayTrace holds
// everything DeviceReplay needs to re-execute it from the checkpoint
// nearest the fault; a crash-free run returns a nil trace.
func DeviceRunTraced(cfg DeviceConfig) (*DeviceResult, *ReplayTrace, error) {
	sc, d, err := newDeviceScenario(cfg, true)
	if err != nil {
		return nil, nil, err
	}
	defer d.dev.Close()

	// Checkpoint cadence: 8 checkpoints across the workload, so the replay
	// re-executes at most ~1/8th of it. Op 0 always has one — a crash on
	// the very first op still replays. The closed-loop drive guarantees
	// the device is at an op boundary here, so Checkpoint always succeeds.
	every := max(cfg.Writes/8, 1)
	tr := &ReplayTrace{CkptOp: -1}
	sc.beforeOp = func(op int) error {
		if op%every != 0 {
			return nil
		}
		ckpt, err := d.dev.Checkpoint()
		if err != nil {
			return fmt.Errorf("chaos: checkpoint at op %d: %w", op, err)
		}
		tr.CkptOp = op
		tr.CkptBoundary = d.inj.Boundaries()
		tr.CkptOpErrors = sc.res.OpErrors
		tr.CkptViolations = append([]string(nil), sc.res.Violations...)
		tr.CkptCommitted = make(map[uint64]int, len(sc.committed))
		for k, i := range sc.committed {
			tr.CkptCommitted[k.addr] = i
		}
		tr.Ckpt = ckpt
		return nil
	}
	res, err := sc.run(0)
	if err != nil || !res.Crashed || tr.CkptOp < 0 {
		return res, nil, err
	}
	tr.Cfg = cfg.normalized()
	tr.Cfg.Logf = nil
	tr.CrashOp = sc.crashOp
	tr.Events = d.dev.Trace()
	return res, tr, nil
}

// DeviceReplay re-executes a recorded scenario from its checkpoint: the
// device state is restored byte-for-byte, the injector's boundary counter
// resumes at the checkpoint's count, and the workload re-runs from the
// checkpoint op through the crash, recovery and the full invariant oracle.
// The returned DeviceResult.Summary() is byte-identical to the original
// failing run's.
func DeviceReplay(tr *ReplayTrace, logf func(format string, args ...any)) (*DeviceResult, error) {
	cfg := tr.Cfg
	cfg.Logf = logf
	sc, d, err := newDeviceScenario(cfg, true)
	if err != nil {
		return nil, err
	}
	defer d.dev.Close()
	if err := d.dev.Restore(tr.Ckpt); err != nil {
		return nil, fmt.Errorf("chaos: restore checkpoint: %w", err)
	}
	// Hooks survive a controller restore, but the trackers' seal state is
	// volatile; re-install fresh ones (the checkpoint was taken at an op
	// boundary, where every seal depth is zero).
	if err := d.dev.SetShardHooks(d.inj.ShardHooks(sc.shards)); err != nil {
		return nil, err
	}
	d.inj.Preset(tr.CkptBoundary)
	sc.res.OpErrors = tr.CkptOpErrors
	sc.res.Violations = append([]string(nil), tr.CkptViolations...)
	for a, i := range tr.CkptCommitted {
		sc.committed[key{addr: a}] = i
	}
	res, err := sc.run(tr.CkptOp)
	if err != nil {
		return nil, err
	}
	checkReplayedTrace(res, tr.Events, d.dev.Trace())
	return res, nil
}

// checkReplayedTrace asserts the replay dispatched exactly the suffix of
// the original event trace: per shard, the replayed stream must equal the
// recorded stream's tail (sequence numbers, clocks and transaction IDs are
// all restored from the checkpoint, so the match is field-for-field). Any
// divergence is a violation — the replay would not be a faithful
// re-execution of the recorded failure.
func checkReplayedTrace(res *DeviceResult, orig, replayed []device.TraceEvent) {
	byShard := func(evs []device.TraceEvent) map[int][]device.TraceEvent {
		m := make(map[int][]device.TraceEvent)
		for _, ev := range evs {
			m[ev.Shard] = append(m[ev.Shard], ev)
		}
		return m
	}
	om, rm := byShard(orig), byShard(replayed)
	shards := make([]int, 0, len(rm))
	for s := range rm {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	for _, s := range shards {
		o, r := om[s], rm[s]
		if len(r) > len(o) {
			res.violate("replay shard %d dispatched %d events, original only %d", s, len(r), len(o))
			continue
		}
		tail := o[len(o)-len(r):]
		for i := range r {
			if r[i] != tail[i] {
				res.violate("replay diverged on shard %d at event %d: recorded %+v, replayed %+v",
					s, tail[i].Seq, tail[i], r[i])
				break
			}
		}
	}
}

// ReplayRepro renders the one-line cmd/chaos invocation that re-executes a
// saved replay trace.
func ReplayRepro(path string) string {
	return fmt.Sprintf("go run ./cmd/chaos -replay %s", path)
}
