package device

import (
	"fmt"

	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// EngineOptions configures a deterministic Engine.
type EngineOptions struct {
	Options
	// Trace records the canonical event trace (per-shard execution streams,
	// concatenated in shard order) for chaos replay and determinism
	// golden tests.
	Trace bool
}

// TraceEvent is one executed data-plane operation in the canonical event
// trace. Shard streams are concatenated in shard order, and Seq/At depend
// only on the shard's own history.
type TraceEvent struct {
	Shard int
	Seq   uint64
	At    sim.Time
	Op    uint8
	Addr  uint64
	ID    uint64
}

// engineCkptVersion is bumped on any change to the engine checkpoint
// layout.
const engineCkptVersion = 2

// Engine hosts the sharded device without goroutines: every operation
// executes in place, on the caller's goroutine, on the same shardCore state
// machines the Device's workers drive. With no queue and no concurrency the
// whole device is a plain value — a run is a pure function of the call
// sequence, and the full state round-trips through Checkpoint/Restore
// byte-for-byte, which is what the tenant service's checkpoints and the
// chaos harness's time-travel replay are built on.
//
// The API is single-threaded: calls must not be interleaved from multiple
// goroutines.
type Engine struct {
	opts  EngineOptions
	cores []*shardCore

	// epoch, down: the crash barrier the Engine provides its shards as
	// their shardEnv. Plain fields — a power cut takes the device down at
	// once, there is no concurrently executing shard to reach.
	epoch  uint64
	down   bool
	closed bool
	nextID uint64

	execSeq []uint64
	traces  [][]TraceEvent
}

func (e *Engine) epochNow() uint64 { return e.epoch }
func (e *Engine) isDown() bool     { return e.down }
func (e *Engine) powerCut() {
	e.down = true
	e.epoch++
}

// NewEngine builds a deterministic engine over opts.Shards controllers.
func NewEngine(opts EngineOptions) (*Engine, error) {
	e := &Engine{}
	cores, err := newShardCores(e, &opts.Options)
	if err != nil {
		return nil, err
	}
	e.opts, e.cores = opts, cores
	e.execSeq = make([]uint64, len(cores))
	e.traces = make([][]TraceEvent, len(cores))
	return e, nil
}

// Info describes the engine-hosted device.
func (e *Engine) Info() Info {
	info := e.opts.info()
	info.BatchSize = 1 // every op executes alone: nothing queues, nothing coalesces
	return info
}

// Down reports whether the engine is in the post-crash state.
func (e *Engine) Down() bool { return e.down }

// do executes one data-plane operation in place on the owning shard. Each
// accepted operation takes the next op id and the shard's next execution
// sequence number, and is recorded in the trace before it runs, so a
// checkpoint plus the trace suffix replays the run exactly.
func (e *Engine) do(op opcode, addr uint64, data *nvm.Line) response {
	if e.closed {
		return response{err: ErrClosed}
	}
	if err := checkLineAddr(addr, e.opts.System.NVM.CapacityBytes); err != nil {
		return response{err: err}
	}
	if e.down {
		return response{err: memctrl.ErrCrashed}
	}
	s := shardOf(addr, e.opts.Shards)
	core := e.cores[s]
	local := toLocalAddr(addr, e.opts.Shards)
	if e.opts.Trace {
		e.traces[s] = append(e.traces[s],
			TraceEvent{Shard: s, Seq: e.execSeq[s], At: core.now, Op: uint8(op), Addr: local, ID: e.nextID})
	}
	e.nextID++
	e.execSeq[s]++
	r := request{op: op, addr: local, epoch: e.epoch, data: data}
	return core.exec(&r)
}

// Read services one 64-byte read (Client).
func (e *Engine) Read(addr uint64) (nvm.Line, sim.Time, error) {
	r := e.do(opRead, addr, nil)
	return r.data, r.latency, r.err
}

// Write services one 64-byte write (Client).
func (e *Engine) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	r := e.do(opWrite, addr, data)
	return r.latency, r.err
}

// Drain waits until the shard owning addr has drained its WPQ (Client).
func (e *Engine) Drain(addr uint64) error {
	return e.do(opDrain, addr, nil).err
}

// control runs one control opcode synchronously on every shard in shard
// order (the engine's single-threaded analogue of Device.broadcast).
func (e *Engine) control(op opcode, hooks []inject.Hook) []response {
	out := make([]response, len(e.cores))
	for i, core := range e.cores {
		r := &request{op: op, epoch: e.epoch}
		if hooks != nil {
			r.hook = hooks[i]
		}
		out[i] = core.exec(r)
	}
	return out
}

// Flush is the device-wide durability barrier (Client).
func (e *Engine) Flush() error {
	if e.closed {
		return ErrClosed
	}
	return firstErr(e.control(opFlush, nil))
}

// Crash cuts power across the whole device (Client): the device goes down,
// then every controller drops its volatile state.
func (e *Engine) Crash() error {
	if e.closed {
		return ErrClosed
	}
	e.powerCut()
	return firstErr(e.control(opCrash, nil))
}

// Recover rebuilds every shard after a crash (Client).
func (e *Engine) Recover() (*RecoveryReport, error) {
	if e.closed {
		return nil, ErrClosed
	}
	rep, err := recoveryReport(e.control(opRecover, nil))
	if err == nil {
		e.down = false
	}
	return rep, err
}

// VerifyAll re-verifies the full NVM image of every shard.
func (e *Engine) VerifyAll() error {
	if e.closed {
		return ErrClosed
	}
	return firstErr(e.control(opVerify, nil))
}

// Stats sums the controller statistics across shards.
func (e *Engine) Stats() memctrl.Stats {
	var total memctrl.Stats
	if e.closed {
		return total
	}
	for _, r := range e.control(opStats, nil) {
		total.Add(r.stats)
	}
	return total
}

// SetHook installs the same chaos-injection hook on every shard.
func (e *Engine) SetHook(h inject.Hook) error {
	return e.SetShardHooks(repeatHook(h, len(e.cores)))
}

// SetShardHooks installs hooks[i] on shard i's controller stack.
func (e *Engine) SetShardHooks(hooks []inject.Hook) error {
	if len(hooks) != len(e.cores) {
		return fmt.Errorf("device: got %d hooks for %d shards", len(hooks), len(e.cores))
	}
	if e.closed {
		return ErrClosed
	}
	return firstErr(e.control(opHook, hooks))
}

// Snapshot merges the per-shard telemetry registries in shard order.
func (e *Engine) Snapshot() *telemetry.Snapshot { return mergeSnapshots(e.cores) }

// Close marks the engine closed (Client). There are no workers to stop.
func (e *Engine) Close() error {
	e.closed = true
	return nil
}

// Trace returns a copy of the canonical event trace: per-shard execution
// streams concatenated in shard order (empty unless Trace was enabled).
func (e *Engine) Trace() []TraceEvent {
	var out []TraceEvent
	for _, tr := range e.traces {
		out = append(out, tr...)
	}
	return out
}

// EncodeTrace serializes a trace with the snapshot codec (no envelope; the
// chaos replay format seals it inside its own).
func EncodeTrace(evs []TraceEvent) []byte {
	w := &sim.SnapW{}
	AppendTrace(w, evs)
	return w.Data()
}

// AppendTrace writes a trace into an open snapshot writer.
func AppendTrace(w *sim.SnapW, evs []TraceEvent) {
	w.U32(uint32(len(evs)))
	for _, ev := range evs {
		w.U32(uint32(ev.Shard))
		w.U64(ev.Seq)
		w.Time(ev.At)
		w.U8(ev.Op)
		w.U64(ev.Addr)
		w.U64(ev.ID)
	}
}

// ReadTrace decodes a trace written by AppendTrace.
func ReadTrace(r *sim.SnapR) []TraceEvent {
	n := r.Count(4 + 8 + 8 + 1 + 8 + 8)
	if n == 0 {
		return nil
	}
	out := make([]TraceEvent, n)
	for i := range out {
		out[i].Shard = int(r.U32())
		out[i].Seq = r.U64()
		out[i].At = r.Time()
		out[i].Op = r.U8()
		out[i].Addr = r.U64()
		out[i].ID = r.U64()
	}
	return out
}

// Checkpoint serializes the full device state — engine bookkeeping,
// per-shard clocks and execution sequence numbers, and every shard's
// controller (memctrl + metadata cache + WPQ + NVM + strategy state) — as
// one sealed snapshot. Restore on an identically configured engine is
// byte-identical: Restore(Checkpoint()) followed by Checkpoint() returns
// the same bytes. Telemetry is excluded (counters restart from zero).
func (e *Engine) Checkpoint() ([]byte, error) {
	if e.closed {
		return nil, ErrClosed
	}
	w := &sim.SnapW{}
	// Identity: a checkpoint only restores onto an engine with the same
	// geometry and scheme. Tracing is excluded — it does not affect state.
	w.U32(uint32(e.opts.Shards))
	w.U64(e.opts.System.NVM.CapacityBytes)
	w.U8(uint8(e.opts.Mode))
	w.String(e.cores[0].ctrl.Strategy())
	// Engine bookkeeping.
	w.U64(e.epoch)
	w.Bool(e.down)
	w.U64(e.nextID)
	// Per-shard state, in shard order. The controller checkpoint is
	// length-prefixed so a corrupt inner payload fails cleanly.
	for s, core := range e.cores {
		w.Time(core.now)
		w.U64(e.execSeq[s])
		ckpt, err := core.ctrl.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("device: shard %d: %w", s, err)
		}
		w.Bytes(ckpt)
	}
	return sim.Seal(sim.SnapKindEngine, engineCkptVersion, w.Data()), nil
}

// engineShardStage holds one shard's decoded checkpoint before any state
// is mutated, so a corrupt snapshot is rejected without touching the
// engine.
type engineShardStage struct {
	now  sim.Time
	seq  uint64
	ctrl []byte
}

// Restore replaces the engine's entire state with a checkpoint taken from
// an identically configured engine. On a decode or identity error the
// engine is untouched; if a shard controller fails to restore after
// decoding succeeded, the engine is poisoned and must be rebuilt.
func (e *Engine) Restore(data []byte) error {
	if e.closed {
		return ErrClosed
	}
	payload, err := sim.Open(sim.SnapKindEngine, engineCkptVersion, data)
	if err != nil {
		return err
	}
	r := sim.NewSnapR(payload)
	if n := int(r.U32()); r.Err() == nil && n != e.opts.Shards {
		return fmt.Errorf("device: checkpoint has %d shards, engine has %d", n, e.opts.Shards)
	}
	if c := r.U64(); r.Err() == nil && c != e.opts.System.NVM.CapacityBytes {
		return fmt.Errorf("device: checkpoint capacity %d, engine has %d", c, e.opts.System.NVM.CapacityBytes)
	}
	if m := r.U8(); r.Err() == nil && m != uint8(e.opts.Mode) {
		return fmt.Errorf("device: checkpoint mode %d, engine has %d", m, uint8(e.opts.Mode))
	}
	if s := r.String(); r.Err() == nil && s != e.cores[0].ctrl.Strategy() {
		return fmt.Errorf("device: checkpoint strategy %q, engine has %q", s, e.cores[0].ctrl.Strategy())
	}
	epoch := r.U64()
	down := r.Bool()
	nextID := r.U64()
	stages := make([]engineShardStage, e.opts.Shards)
	for s := range stages {
		st := &stages[s]
		st.now = r.Time()
		st.seq = r.U64()
		st.ctrl = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return err
	}
	// Decode succeeded; commit. Controller restores validate their own
	// identity and integrity before mutating, so the common failure modes
	// still leave the engine untouched.
	for s, core := range e.cores {
		if err := core.ctrl.Restore(stages[s].ctrl); err != nil {
			return fmt.Errorf("device: shard %d: %w", s, err)
		}
	}
	e.epoch = epoch
	e.down = down
	e.nextID = nextID
	for s, core := range e.cores {
		core.now = stages[s].now
		e.execSeq[s] = stages[s].seq
		e.traces[s] = nil
	}
	return nil
}

var _ Client = (*Engine)(nil)
