package device

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// EngineOptions configures a deterministic Engine.
type EngineOptions struct {
	Options
	// Workers partitions the shards (id mod Workers) across that many
	// event loops per Run. The schedule is deterministic at any worker
	// count: shards are fully independent state machines, and the crash
	// barrier is applied at run boundaries, so every shard's outcome is a
	// pure function of its own transaction stream. 0 means 1.
	Workers int
	// Trace records the canonical event trace (per-shard dispatch streams,
	// concatenated in shard order) for chaos replay and determinism
	// golden tests.
	Trace bool
}

// TxnResult is the completion record of one transaction dispatched by Run.
type TxnResult struct {
	ID      uint64
	Shard   int
	Data    nvm.Line
	Latency sim.Time
	Err     error
}

// TraceEvent is one dispatched transaction in the canonical event trace.
// The trace is worker-count invariant: shard streams are concatenated in
// shard order, and Seq/At depend only on the shard's own history.
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
const engineCkptVersion = 1

// Engine hosts the sharded device on a deterministic event queue instead
// of goroutine workers: in-flight transactions are serializable Txn values
// in per-shard FIFO queues, shards are pure-data shardCore state machines
// with explicit Enabled/Paused/Draining modes, and Run dispatches through
// sim.Engine priority queues in strict (At, Actor, Seq) order. The whole
// device state round-trips through Checkpoint/Restore byte-for-byte, which
// is what the chaos harness's time-travel replay is built on.
//
// The API is single-threaded: Submit/Run/Checkpoint/control calls must not
// be interleaved from multiple goroutines (Run itself may fan shards out
// across Workers event loops internally).
type Engine struct {
	opts  EngineOptions
	cores []*shardCore
	envs  []*engineShardEnv
	pend  [][]Txn

	epoch  uint64
	down   bool
	closed bool
	nextID uint64

	// cut is set by any worker observing an inject.PowerLoss during Run
	// and folded into epoch/down at the run boundary.
	cut atomic.Bool

	execSeq []uint64
	traces  [][]TraceEvent

	// bids is ExecBatch's transaction-ID scratch, reused across calls.
	bids []uint64
}

// engineShardEnv adapts the Engine to the shardEnv contract with
// deterministic crash-barrier semantics: epoch and down are constant for
// the duration of one Run (the coordinator only writes them between runs),
// and a power cut observed on this shard takes effect locally at once but
// device-wide only at the run boundary. Each shard's outcome is therefore
// a pure function of its own stream at any worker count.
type engineShardEnv struct {
	eng      *Engine
	localCut bool
}

func (v *engineShardEnv) epochNow() uint64 {
	if v.localCut {
		return v.eng.epoch + 1
	}
	return v.eng.epoch
}

func (v *engineShardEnv) isDown() bool { return v.eng.down || v.localCut }

func (v *engineShardEnv) powerCut() {
	v.localCut = true
	v.eng.cut.Store(true)
}

// NewEngine builds a deterministic engine over opts.Shards controllers.
func NewEngine(opts EngineOptions) (*Engine, error) {
	shardCfg, err := shardSystem(&opts.Options)
	if err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	e := &Engine{
		opts:    opts,
		cores:   make([]*shardCore, opts.Shards),
		envs:    make([]*engineShardEnv, opts.Shards),
		pend:    make([][]Txn, opts.Shards),
		execSeq: make([]uint64, opts.Shards),
		traces:  make([][]TraceEvent, opts.Shards),
	}
	for i := range e.cores {
		ctrl, err := memctrl.New(shardCfg, opts.Mode, opts.Key, opts.Ctrl)
		if err != nil {
			return nil, fmt.Errorf("device: shard %d: %w", i, err)
		}
		env := &engineShardEnv{eng: e}
		core := &shardCore{id: i, env: env, ctrl: ctrl, mode: ShardEnabled}
		if opts.Telemetry {
			core.reg = telemetry.NewRegistry()
			ctrl.AttachTelemetry(core.reg)
			core.retired = core.reg.Counter("device_retired_requests_total")
			core.powerLoss = core.reg.Counter("device_power_losses_total")
		}
		e.cores[i] = core
		e.envs[i] = env
	}
	return e, nil
}

// Info describes the engine-hosted device.
func (e *Engine) Info() Info {
	return Info{
		Shards:        e.opts.Shards,
		CapacityBytes: e.opts.System.NVM.CapacityBytes,
		Mode:          e.opts.Mode.String(),
		QueueDepth:    e.opts.QueueDepth,
		BatchSize:     1, // the engine never batches or coalesces
	}
}

// Down reports whether the engine is in the post-crash state.
func (e *Engine) Down() bool { return e.down }

// ShardState returns shard s's pipeline mode.
func (e *Engine) ShardState(s int) ShardMode { return e.cores[s].mode }

// SetShardMode moves shard s's pipeline state machine. Draining a shard
// whose queue is already empty parks it in ShardPaused immediately.
func (e *Engine) SetShardMode(s int, m ShardMode) error {
	if s < 0 || s >= len(e.cores) {
		return fmt.Errorf("device: shard %d out of range [0,%d)", s, len(e.cores))
	}
	if m > ShardDraining {
		return fmt.Errorf("device: invalid shard mode %d", m)
	}
	if m == ShardDraining && len(e.pend[s]) == 0 {
		m = ShardPaused
	}
	e.cores[s].mode = m
	return nil
}

// submitTxn queues one data-plane transaction and returns its ID.
func (e *Engine) submitTxn(op opcode, addr uint64, data *nvm.Line) (uint64, error) {
	if e.closed {
		return 0, ErrClosed
	}
	if err := checkLineAddr(addr, e.opts.System.NVM.CapacityBytes); err != nil {
		return 0, err
	}
	if e.down {
		return 0, memctrl.ErrCrashed
	}
	s := shardOf(addr, e.opts.Shards)
	if e.cores[s].mode == ShardDraining {
		return 0, &BusyError{Shard: s, Pending: len(e.pend[s])}
	}
	if len(e.pend[s]) >= e.opts.QueueDepth {
		return 0, &BusyError{Shard: s, Pending: len(e.pend[s])}
	}
	id := e.nextID
	e.nextID++
	t := Txn{ID: id, Op: uint8(op), Addr: toLocalAddr(addr, e.opts.Shards), Epoch: e.epoch}
	if data != nil {
		t.HasData = true
		t.Data = *data
	}
	e.pend[s] = append(e.pend[s], t)
	return id, nil
}

// SubmitRead queues a read; Run dispatches it.
func (e *Engine) SubmitRead(addr uint64) (uint64, error) {
	return e.submitTxn(opRead, addr, nil)
}

// SubmitWrite queues a write (data is copied).
func (e *Engine) SubmitWrite(addr uint64, data *nvm.Line) (uint64, error) {
	return e.submitTxn(opWrite, addr, data)
}

// SubmitDrain queues a WPQ drain on the shard owning addr.
func (e *Engine) SubmitDrain(addr uint64) (uint64, error) {
	return e.submitTxn(opDrain, addr, nil)
}

// workers clamps the configured worker count to the shard count.
func (e *Engine) workers() int {
	w := e.opts.Workers
	if w > len(e.cores) {
		w = len(e.cores)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run dispatches every queued transaction on every non-paused shard and
// returns the completions in transaction-ID order. A power loss observed
// during the run takes its shard down immediately and the whole device
// down at the run boundary (epoch advance + down bit), so transactions
// still queued on other shards retire on the next Run — the deterministic
// analogue of the goroutine device's crash barrier.
func (e *Engine) Run() []TxnResult {
	if e.closed {
		return nil
	}
	W := e.workers()
	results := make([][]TxnResult, W)
	if W == 1 {
		results[0] = e.runWorker(0, 1)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				results[w] = e.runWorker(w, W)
			}(w)
		}
		wg.Wait()
	}
	if e.cut.Load() {
		e.cut.Store(false)
		e.down = true
		e.epoch++
		for _, env := range e.envs {
			env.localCut = false
		}
	}
	var out []TxnResult
	for _, rs := range results {
		out = append(out, rs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// runWorker drains the shards of one partition (id mod W == w) through a
// private sim.Engine in strict (At, Actor, Seq) order.
func (e *Engine) runWorker(w, W int) []TxnResult {
	var out []TxnResult
	var se *sim.Engine
	se = sim.NewEngine(func(ev sim.Event) {
		s := ev.Actor
		core := e.cores[s]
		if core.mode == ShardPaused || len(e.pend[s]) == 0 {
			return
		}
		t := e.pend[s][0]
		e.pend[s] = e.pend[s][1:]
		if e.opts.Trace {
			e.traces[s] = append(e.traces[s],
				TraceEvent{Shard: s, Seq: e.execSeq[s], At: core.now, Op: t.Op, Addr: t.Addr, ID: t.ID})
		}
		e.execSeq[s]++
		res := core.exec(t.request())
		out = append(out, TxnResult{ID: t.ID, Shard: s, Data: res.data, Latency: res.latency, Err: res.err})
		if len(e.pend[s]) > 0 && core.mode != ShardPaused {
			se.Schedule(core.now, s)
		} else if core.mode == ShardDraining {
			core.mode = ShardPaused
		}
	})
	for s := w; s < len(e.cores); s += W {
		if e.cores[s].mode != ShardPaused && len(e.pend[s]) > 0 {
			se.Schedule(e.cores[s].now, s)
		}
	}
	se.Run()
	return out
}

// runFor runs to idle and returns the completion of txn id. A transaction
// parked on a paused shard does not complete; that is an error for the
// closed-loop Client path.
func (e *Engine) runFor(id uint64) (TxnResult, error) {
	for _, r := range e.Run() {
		if r.ID == id {
			return r, nil
		}
	}
	return TxnResult{}, fmt.Errorf("device: transaction %d did not complete (shard paused?)", id)
}

// trySync executes one closed-loop data-plane operation without going
// through the transaction queue: when the target shard is Enabled and its
// queue is empty, submitting then running to idle would dispatch exactly
// this one transaction, so the engine executes it in place with identical
// bookkeeping (same ID assignment, same trace event, same execSeq and
// clock advance, same crash-barrier fold). This keeps the Client-style
// Read/Write/Drain path allocation-free — the tenant layer's steady-state
// data path rides it — while Submit/Run batches are untouched.
//
// handled=false falls back to the queued path (queue non-empty, shard not
// Enabled, or a submission-time rejection the queued path must produce).
func (e *Engine) trySync(op opcode, addr uint64, data *nvm.Line) (response, bool) {
	if e.closed || e.down {
		return response{}, false
	}
	if err := checkLineAddr(addr, e.opts.System.NVM.CapacityBytes); err != nil {
		return response{}, false
	}
	s := shardOf(addr, e.opts.Shards)
	core := e.cores[s]
	if core.mode != ShardEnabled || len(e.pend[s]) > 0 {
		return response{}, false
	}
	id := e.nextID
	e.nextID++
	local := toLocalAddr(addr, e.opts.Shards)
	if e.opts.Trace {
		e.traces[s] = append(e.traces[s],
			TraceEvent{Shard: s, Seq: e.execSeq[s], At: core.now, Op: uint8(op), Addr: local, ID: id})
	}
	e.execSeq[s]++
	r := request{op: op, addr: local, epoch: e.epoch, data: data}
	res := core.exec(&r)
	// Fold a power cut observed during the op at once — the same barrier
	// Run applies at its boundary after a one-transaction dispatch.
	if e.cut.Load() {
		e.cut.Store(false)
		e.down = true
		e.epoch++
		for _, env := range e.envs {
			env.localCut = false
		}
	}
	return res, true
}

// Read services one 64-byte read (Client). The engine is closed-loop here:
// the transaction is queued and the engine runs to idle.
func (e *Engine) Read(addr uint64) (nvm.Line, sim.Time, error) {
	if res, ok := e.trySync(opRead, addr, nil); ok {
		return res.data, res.latency, res.err
	}
	id, err := e.submitTxn(opRead, addr, nil)
	if err != nil {
		return nvm.Line{}, 0, err
	}
	r, err := e.runFor(id)
	if err != nil {
		return nvm.Line{}, 0, err
	}
	return r.Data, r.Latency, r.Err
}

// Write services one 64-byte write (Client).
func (e *Engine) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	if res, ok := e.trySync(opWrite, addr, data); ok {
		return res.latency, res.err
	}
	id, err := e.submitTxn(opWrite, addr, data)
	if err != nil {
		return 0, err
	}
	r, err := e.runFor(id)
	if err != nil {
		return 0, err
	}
	return r.Latency, r.Err
}

// Drain waits until the shard owning addr has drained its WPQ (Client).
func (e *Engine) Drain(addr uint64) error {
	if res, ok := e.trySync(opDrain, addr, nil); ok {
		return res.err
	}
	id, err := e.submitTxn(opDrain, addr, nil)
	if err != nil {
		return err
	}
	r, err := e.runFor(id)
	if err != nil {
		return err
	}
	return r.Err
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
	// A power loss during a control op (e.g. a flush crossing an injected
	// write boundary) applies at once: control runs on the coordinator.
	if e.cut.Load() {
		e.cut.Store(false)
		e.down = true
		e.epoch++
		for _, env := range e.envs {
			env.localCut = false
		}
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

// Crash cuts power across the whole device (Client): the epoch advances
// first so queued transactions retire unexecuted on the next Run, then
// every controller drops its volatile state.
func (e *Engine) Crash() error {
	if e.closed {
		return ErrClosed
	}
	e.down = true
	e.epoch++
	return firstErr(e.control(opCrash, nil))
}

// Recover rebuilds every shard after a crash (Client).
func (e *Engine) Recover() (*RecoveryReport, error) {
	if e.closed {
		return nil, ErrClosed
	}
	rs := e.control(opRecover, nil)
	rep := &RecoveryReport{Shards: make([]*memctrl.RecoveryReport, len(rs))}
	for i, r := range rs {
		rep.Shards[i] = r.report
	}
	if err := firstErr(rs); err != nil {
		return rep, err
	}
	e.down = false
	return rep, nil
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
	hooks := make([]inject.Hook, len(e.cores))
	for i := range hooks {
		hooks[i] = h
	}
	return e.SetShardHooks(hooks)
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
func (e *Engine) Snapshot() *telemetry.Snapshot {
	merged := &telemetry.Snapshot{}
	for _, core := range e.cores {
		merged.Merge(core.reg.Snapshot())
	}
	return merged
}

// Close marks the engine closed (Client). There are no workers to stop;
// queued transactions are discarded.
func (e *Engine) Close() error {
	e.closed = true
	return nil
}

// Trace returns a copy of the canonical event trace: per-shard dispatch
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
// per-shard modes, clocks and pending transactions, and every shard's
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
	// geometry and scheme. Worker count and tracing are excluded — they
	// do not affect state.
	w.U32(uint32(e.opts.Shards))
	w.U64(e.opts.System.NVM.CapacityBytes)
	w.U8(uint8(e.opts.Mode))
	w.String(e.cores[0].ctrl.Strategy())
	w.U32(uint32(e.opts.QueueDepth))
	// Engine bookkeeping.
	w.U64(e.epoch)
	w.Bool(e.down)
	w.U64(e.nextID)
	// Per-shard state machines, in shard order.
	for s, core := range e.cores {
		w.U8(uint8(core.mode))
		w.Time(core.now)
		w.U64(e.execSeq[s])
		appendTxns(w, e.pend[s])
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
	mode ShardMode
	now  sim.Time
	seq  uint64
	pend []Txn
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
	if q := int(r.U32()); r.Err() == nil && q != e.opts.QueueDepth {
		return fmt.Errorf("device: checkpoint queue depth %d, engine has %d", q, e.opts.QueueDepth)
	}
	epoch := r.U64()
	down := r.Bool()
	nextID := r.U64()
	stages := make([]engineShardStage, e.opts.Shards)
	for s := range stages {
		st := &stages[s]
		st.mode = ShardMode(r.U8())
		if r.Err() == nil && st.mode > ShardDraining {
			return fmt.Errorf("device: checkpoint shard %d has invalid mode %d", s, st.mode)
		}
		st.now = r.Time()
		st.seq = r.U64()
		st.pend = readTxns(r, e.opts.QueueDepth)
		for i := range st.pend {
			if st.pend[i].Op > uint8(opDrain) {
				return fmt.Errorf("device: checkpoint shard %d pending txn %d has non-data opcode %d",
					s, i, st.pend[i].Op)
			}
		}
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
	e.cut.Store(false)
	for s, core := range e.cores {
		core.mode = stages[s].mode
		core.now = stages[s].now
		e.execSeq[s] = stages[s].seq
		e.pend[s] = stages[s].pend
		e.envs[s].localCut = false
		e.traces[s] = nil
	}
	return nil
}

var _ Client = (*Engine)(nil)
