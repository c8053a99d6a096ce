// Package device turns the single-threaded memctrl.Controller into a
// thread-safe secure-NVM device service. The address space is sharded by
// line interleaving across N independent controllers — each with its own
// metadata cache, WPQ, telemetry registry and simulated clock — and every
// shard is driven by exactly one goroutine, preserving the controller's
// single-threaded contract while the device as a whole serves concurrent
// traffic.
//
// The concurrency model, in one paragraph: callers Submit requests into
// bounded per-shard queues (backpressure is a typed *BusyError with a
// retry-after hint, never a block); each shard worker drains its queue in
// batches, coalescing adjacent writes to the same line before WPQ
// admission; control operations (Crash, Recover, Flush, VerifyAll) are
// broadcast to every shard and collected in shard order under one
// control mutex, and Crash additionally advances a device-wide epoch so
// data requests admitted before the crash barrier are retired unexecuted
// — the same thing a real power cut does to queued commands.
//
// Determinism: for a fixed per-shard request order the device is fully
// deterministic — each shard's sim clock, controller state and telemetry
// registry depend only on its own stream, and Snapshot merges the
// per-shard registries in shard order. A closed-loop client that keeps at
// most one request in flight per shard therefore produces byte-identical
// telemetry snapshots at any worker count (cmd/loadgen's golden test).
// Batching and coalescing only engage when a queue actually backs up, so
// they never perturb a closed-loop run.
//
// Engine is the second host of the same per-shard state machine
// (shardCore): no goroutines and no queues, every operation executes in
// place on the caller's goroutine. It trades concurrency for a device that
// is a plain value — Checkpoint/Restore round-trip it byte-for-byte and a
// recorded Trace replays it — and is what the tenant service and the chaos
// replay harness run on.
package device

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soteria/internal/config"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// Options configures a Device.
type Options struct {
	// System is the per-device system configuration. NVM.CapacityBytes is
	// the device's total data capacity; each shard gets an equal slice
	// (the line count must divide evenly by Shards).
	System config.SystemConfig
	// Mode selects the protection scheme for every shard.
	Mode memctrl.Mode
	// Key is the encryption key (shared across shards; the per-shard
	// address spaces are disjoint, so counters never collide).
	Key []byte
	// Shards is the number of independent controllers (default 1).
	Shards int
	// QueueDepth bounds each shard's request queue (default 64). A full
	// queue rejects submissions with *BusyError.
	QueueDepth int
	// BatchSize bounds how many queued requests one worker iteration
	// drains and coalesces (default 8).
	BatchSize int
	// Ctrl passes through controller options (Osiris limit, ablations).
	Ctrl memctrl.Options
	// Telemetry attaches a per-shard registry to every controller stack;
	// Snapshot merges them in shard order.
	Telemetry bool
}

func (o *Options) info() Info {
	return Info{
		Shards:        o.Shards,
		CapacityBytes: o.System.NVM.CapacityBytes,
		Mode:          o.Mode.String(),
		QueueDepth:    o.QueueDepth,
		BatchSize:     o.BatchSize,
	}
}

func (o *Options) fill() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 8
	}
}

// Info describes a running device (served to loadgen over the wire so the
// client can reproduce the shard mapping).
type Info struct {
	Shards        int    `json:"shards"`
	CapacityBytes uint64 `json:"capacity_bytes"`
	Mode          string `json:"mode"`
	QueueDepth    int    `json:"queue_depth"`
	BatchSize     int    `json:"batch_size"`
}

// Device is the sharded, thread-safe secure-NVM service. All exported
// methods are safe for concurrent use.
type Device struct {
	opts   Options
	cores  []*shardCore
	shards []*shard

	// epoch is the crash-barrier generation. Data requests are stamped at
	// submission; a Crash (or an in-flight power loss) advances it, and
	// workers retire any dequeued request from an older epoch unexecuted.
	epoch atomic.Uint64
	// down is set on power loss or Crash and cleared by Recover; data
	// submissions are rejected while set.
	down atomic.Bool
	// closed is set by Close; checked under subMu so no submission can
	// race past a completed shutdown.
	closed atomic.Bool

	// ctl serializes control-plane operations (Crash/Recover/Flush/
	// VerifyAll/Stats/SetHook/Close) so their shard broadcasts never
	// interleave.
	ctl sync.Mutex
	// subMu guards the submission send: Submit holds it shared for the
	// instant of the channel send; Close holds it exclusively to fence
	// out in-flight senders before stopping the workers.
	subMu sync.RWMutex
	wg    sync.WaitGroup

	// batchPool recycles ExecBatch's per-call scratch (per-shard groups
	// and their reusable requests) so steady-state batched execution
	// allocates nothing.
	batchPool sync.Pool
}

// newShardCores validates the sharding geometry (fill defaults, line
// alignment, even division across shards) and builds one controller per
// shard, each with its own telemetry registry when opts.Telemetry is set.
// Shared by the goroutine Device and the deterministic Engine so both hosts
// agree on the address-space split and on what a shard is.
func newShardCores(env shardEnv, opts *Options) ([]*shardCore, error) {
	opts.fill()
	totalLines := opts.System.NVM.CapacityBytes / nvm.LineSize
	if totalLines == 0 || opts.System.NVM.CapacityBytes%nvm.LineSize != 0 {
		return nil, fmt.Errorf("device: capacity %d is not a positive multiple of the %d-byte line",
			opts.System.NVM.CapacityBytes, nvm.LineSize)
	}
	if totalLines%uint64(opts.Shards) != 0 {
		return nil, fmt.Errorf("device: %d lines do not shard evenly across %d shards", totalLines, opts.Shards)
	}
	shardCfg := opts.System
	shardCfg.NVM.CapacityBytes = opts.System.NVM.CapacityBytes / uint64(opts.Shards)

	cores := make([]*shardCore, opts.Shards)
	for i := range cores {
		ctrl, err := memctrl.New(shardCfg, opts.Mode, opts.Key, opts.Ctrl)
		if err != nil {
			return nil, fmt.Errorf("device: shard %d: %w", i, err)
		}
		core := &shardCore{id: i, env: env, ctrl: ctrl}
		if opts.Telemetry {
			core.reg = telemetry.NewRegistry()
			ctrl.AttachTelemetry(core.reg)
			core.retired = core.reg.Counter("device_retired_requests_total")
			core.powerLoss = core.reg.Counter("device_power_losses_total")
		}
		cores[i] = core
	}
	return cores, nil
}

// New builds and starts a sharded device. The per-shard capacity is
// System.NVM.CapacityBytes / Shards; the total line count must divide
// evenly.
func New(opts Options) (*Device, error) {
	d := &Device{}
	cores, err := newShardCores(d, &opts)
	if err != nil {
		return nil, err
	}
	d.opts, d.cores, d.shards = opts, cores, make([]*shard, len(cores))
	for i, core := range cores {
		s := &shard{
			shardCore: core,
			dev:       d,
			reqs:      make(chan *request, opts.QueueDepth),
			batchMax:  opts.BatchSize,
		}
		if opts.Telemetry {
			s.batches = s.reg.Counter("device_batches_total")
			s.batched = s.reg.Histogram("device_batch_size", telemetry.LinearBounds(1, 1, opts.BatchSize))
			s.coalesced = s.reg.Counter("device_coalesced_writes_total")
			s.busy = s.reg.Counter("device_busy_rejects_total")
		}
		d.shards[i] = s
	}
	for _, s := range d.shards {
		d.wg.Add(1)
		go s.run()
	}
	return d, nil
}

// Info describes the device.
func (d *Device) Info() Info { return d.opts.info() }

// Down reports whether the device is in the post-crash/power-loss state
// where data operations are rejected until Recover — the readiness bit
// health probes expose.
func (d *Device) Down() bool {
	return d.down.Load()
}

// ShardOf maps a device data address to its shard: global line g lives on
// shard g mod Shards (line interleaving, so sequential streams spread
// across all controllers).
func (d *Device) ShardOf(addr uint64) int {
	return shardOf(addr, d.opts.Shards)
}

// localAddr translates a device address to the owning shard's local
// address space: global line g becomes local line g / Shards.
func (d *Device) localAddr(addr uint64) uint64 {
	return toLocalAddr(addr, d.opts.Shards)
}

// GlobalAddr is the inverse mapping: the device address of local line
// index (local/LineSize) on the given shard.
func (d *Device) GlobalAddr(shard int, local uint64) uint64 {
	return ((local/nvm.LineSize)*uint64(d.opts.Shards) + uint64(shard)) * nvm.LineSize
}

func (d *Device) checkAddr(addr uint64) error {
	return checkLineAddr(addr, d.opts.System.NVM.CapacityBytes)
}

// submit enqueues a data-plane request on the owning shard without
// blocking; a full queue returns *BusyError immediately.
func (d *Device) submit(op opcode, addr uint64, data *nvm.Line) response {
	if err := d.checkAddr(addr); err != nil {
		return response{err: err}
	}
	if d.down.Load() {
		return response{err: memctrl.ErrCrashed}
	}
	s := d.shards[d.ShardOf(addr)]
	req := &request{op: op, addr: d.localAddr(addr), data: data, epoch: d.epoch.Load(), resp: make(chan response, 1)}

	d.subMu.RLock()
	if d.closed.Load() {
		d.subMu.RUnlock()
		return response{err: ErrClosed}
	}
	select {
	case s.reqs <- req:
		d.subMu.RUnlock()
	default:
		pending := len(s.reqs)
		d.subMu.RUnlock()
		s.busy.Inc()
		return response{err: &BusyError{Shard: s.id, Pending: pending, RetryAfter: s.retryHint(pending)}}
	}
	return <-req.resp
}

// Read services one 64-byte read. The returned time is the simulated
// latency of the access on its shard's clock.
func (d *Device) Read(addr uint64) (nvm.Line, sim.Time, error) {
	r := d.submit(opRead, addr, nil)
	return r.data, r.latency, r.err
}

// Write services one 64-byte write (encrypt, MAC, shadow log, WPQ on the
// owning shard). data is copied before the call returns.
func (d *Device) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	line := *data // the request outlives the caller's buffer
	r := d.submit(opWrite, addr, &line)
	return r.latency, r.err
}

// Drain waits until every write accepted by the shard owning addr has
// left its write pending queue (the per-shard sfence). Device-wide
// durability is Flush.
func (d *Device) Drain(addr uint64) error {
	return d.submit(opDrain, addr, nil).err
}

// broadcast sends one control request to every shard (blocking sends: the
// workers are alive and draining) and collects the responses in shard
// order. Callers hold d.ctl.
func (d *Device) broadcast(op opcode, hook []inject.Hook) []response {
	reqs := make([]*request, len(d.shards))
	for i, s := range d.shards {
		reqs[i] = &request{op: op, epoch: d.epoch.Load(), resp: make(chan response, 1)}
		if hook != nil {
			reqs[i].hook = hook[i]
		}
		d.subMu.RLock()
		s.reqs <- reqs[i]
		d.subMu.RUnlock()
	}
	out := make([]response, len(d.shards))
	for i, req := range reqs {
		out[i] = <-req.resp
	}
	return out
}

func firstErr(rs []response) error {
	for _, r := range rs {
		if r.err != nil {
			return r.err
		}
	}
	return nil
}

// recoveryReport collects the per-shard reports of one opRecover round, in
// shard order, with the first shard error (the report is returned either
// way: a nested power loss leaves partial reports worth printing).
func recoveryReport(rs []response) (*RecoveryReport, error) {
	rep := &RecoveryReport{Shards: make([]*memctrl.RecoveryReport, len(rs))}
	for i, r := range rs {
		rep.Shards[i] = r.report
	}
	return rep, firstErr(rs)
}

// repeatHook is SetHook's fan-out: the same hook for each of n shards.
func repeatHook(h inject.Hook, n int) []inject.Hook {
	hooks := make([]inject.Hook, n)
	for i := range hooks {
		hooks[i] = h
	}
	return hooks
}

// mergeSnapshots merges the per-shard telemetry registries in shard order
// (the merge of nil registries — a host built without Telemetry — is an
// empty snapshot).
func mergeSnapshots(cores []*shardCore) *telemetry.Snapshot {
	merged := &telemetry.Snapshot{}
	for _, core := range cores {
		merged.Merge(core.reg.Snapshot())
	}
	return merged
}

// Crash cuts power across the whole device: the epoch advances first, so
// every data request still queued behind the barrier is retired
// unexecuted, then each shard's controller drops its volatile state. The
// device rejects data operations until Recover.
func (d *Device) Crash() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	d.powerCut()
	return firstErr(d.broadcast(opCrash, nil))
}

// Recover rebuilds every shard after a crash and reports what each one
// reconstructed, in shard order. On success the device accepts data
// operations again. If a shard's recovery is itself cut by a power loss
// (nested chaos injection), the error is a *PowerError and the device
// stays down: call Crash and Recover again.
func (d *Device) Recover() (*RecoveryReport, error) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return nil, ErrClosed
	}
	rep, err := recoveryReport(d.broadcast(opRecover, nil))
	if err == nil {
		d.down.Store(false)
	}
	return rep, err
}

// Flush writes back every dirty metadata block and drains the WPQ on all
// shards — the device-wide durability barrier a clean shutdown performs.
// Unlike Crash it does not fence the epoch: requests already queued
// execute before the flush reaches their shard.
func (d *Device) Flush() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return firstErr(d.broadcast(opFlush, nil))
}

// VerifyAll re-verifies the full NVM image of every shard.
func (d *Device) VerifyAll() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return firstErr(d.broadcast(opVerify, nil))
}

// Stats sums the controller statistics across shards. The collection runs
// through the shard queues, so it reflects a consistent per-shard point
// in each stream.
func (d *Device) Stats() memctrl.Stats {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	var total memctrl.Stats
	if d.closed.Load() {
		return total
	}
	for _, r := range d.broadcast(opStats, nil) {
		total.Add(r.stats)
	}
	return total
}

// SetHook installs the same chaos-injection hook on every shard's
// controller stack. A shared hook is only safe when at most one request
// is in flight device-wide (closed-loop chaos harness); concurrent
// drivers must use SetShardHooks with per-shard state.
func (d *Device) SetHook(h inject.Hook) error {
	return d.SetShardHooks(repeatHook(h, len(d.shards)))
}

// SetShardHooks installs hooks[i] on shard i's controller stack (nil
// entries detach). len(hooks) must equal the shard count.
func (d *Device) SetShardHooks(hooks []inject.Hook) error {
	if len(hooks) != len(d.shards) {
		return fmt.Errorf("device: got %d hooks for %d shards", len(hooks), len(d.shards))
	}
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return firstErr(d.broadcast(opHook, hooks))
}

// Snapshot merges the per-shard telemetry registries in shard order. The
// result is deterministic whenever each shard's request order is.
func (d *Device) Snapshot() *telemetry.Snapshot { return mergeSnapshots(d.cores) }

// Close drains and stops every shard worker. Data submissions racing with
// Close either complete or return ErrClosed; requests already queued are
// executed before their worker exits. Close is idempotent.
func (d *Device) Close() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return nil
	}
	// Fence: after this critical section no sender is mid-send and every
	// future Submit observes closed under the shared lock.
	d.subMu.Lock()
	d.closed.Store(true)
	d.subMu.Unlock()
	for _, s := range d.shards {
		s.reqs <- &request{op: opStop, resp: make(chan response, 1)}
	}
	d.wg.Wait()
	return nil
}

// retryHint estimates a backoff for a rejected submission from the
// shard's recent wall-clock service time and the observed queue depth.
type ewma struct{ ns atomic.Int64 }

func (e *ewma) observe(d time.Duration) {
	const alpha = 8 // new sample weight 1/8
	for {
		old := e.ns.Load()
		nw := old + (int64(d)-old)/alpha
		if old == 0 {
			nw = int64(d)
		}
		if e.ns.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (e *ewma) value() time.Duration { return time.Duration(e.ns.Load()) }
