// Package device turns the single-threaded memctrl.Controller into a
// thread-safe secure-NVM device service. The address space is sharded by
// line interleaving across N independent controllers — each with its own
// metadata cache, WPQ, telemetry registry and simulated clock — and every
// shard is guarded by one mutex, preserving the controller's
// single-threaded contract while the device as a whole serves concurrent
// traffic.
//
// The concurrency model, in one paragraph: every data operation executes in
// place, on the caller's goroutine, under the lock of the shard that owns
// its address; the device keeps no goroutine and holds no queue, so
// callers on different shards run in parallel and callers on one shard take
// turns. ExecBatch partitions a batch by shard and runs each shard's group
// under one lock hold, coalescing superseded writes inside the group.
// Control operations (Crash, Recover, Flush, VerifyAll) visit every shard
// under one control mutex and report in shard order, and Crash additionally
// advances a device-wide epoch so data operations stamped before the crash
// barrier — callers still waiting for their shard — are retired unexecuted,
// the same thing a real power cut does to queued commands.
//
// Determinism: for a fixed per-shard operation order the device is fully
// deterministic — each shard's sim clock, controller state and telemetry
// registry depend only on its own stream, and Snapshot merges the per-shard
// registries in shard order. A closed-loop client that keeps at most one
// operation in flight per shard therefore produces byte-identical telemetry
// snapshots at any worker count (cmd/loadgen's golden test), and a
// single-goroutine driver makes the whole device a pure function of its
// call sequence, which is what lets a chaos repro line replay a failing
// run exactly.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
	// Ctrl passes through controller options (persistence strategy,
	// eager tree update, the half-repair switch).
	Ctrl memctrl.Options
	// Telemetry attaches a per-shard registry to every controller stack;
	// Snapshot merges them in shard order.
	Telemetry bool
}

// Info describes a running device (served to loadgen over the wire so the
// client can reproduce the shard mapping).
type Info struct {
	Shards        int    `json:"shards"`
	CapacityBytes uint64 `json:"capacity_bytes"`
	Mode          string `json:"mode"`
}

// Device is the sharded, thread-safe secure-NVM service. All exported
// methods are safe for concurrent use.
type Device struct {
	opts   Options
	shards []*shard

	// epoch is the crash-barrier generation. Data operations read it before
	// they take their shard's lock; a Crash (or an in-flight power loss)
	// advances it, and an operation that reaches its shard with an older
	// stamp is retired unexecuted.
	epoch atomic.Uint64
	// down is set on power loss or Crash and cleared by Recover; data
	// operations are rejected while set.
	down atomic.Bool
	// closed is set by Close. Data operations check it again under the
	// shard lock, so none runs once Close has visited its shard.
	closed atomic.Bool

	// ctl serializes control-plane operations (Crash/Recover/Flush/
	// VerifyAll/Stats/SetShardHooks/Close) so their shard visits never
	// interleave.
	ctl sync.Mutex
	// hooked records that some shard has an inject.Hook installed
	// (guarded by ctl); see control.
	hooked bool

	// batchPool recycles ExecBatch's per-call scratch (the per-shard
	// groups) so steady-state batched execution allocates nothing.
	batchPool sync.Pool
}

// New builds a sharded device: it validates the geometry (line alignment,
// even division across shards) and builds one controller per shard, each
// with its own telemetry registry when opts.Telemetry is set. The per-shard
// capacity is System.NVM.CapacityBytes / Shards.
func New(opts Options) (*Device, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	capacity := opts.System.NVM.CapacityBytes
	totalLines := capacity / nvm.LineSize
	if totalLines == 0 || capacity%nvm.LineSize != 0 {
		return nil, fmt.Errorf("device: capacity %d is not a positive multiple of the %d-byte line", capacity, nvm.LineSize)
	}
	if totalLines%uint64(opts.Shards) != 0 {
		return nil, fmt.Errorf("device: %d lines do not shard evenly across %d shards", totalLines, opts.Shards)
	}
	shardCfg := opts.System
	shardCfg.NVM.CapacityBytes = capacity / uint64(opts.Shards)

	d := &Device{opts: opts, shards: make([]*shard, opts.Shards)}
	for i := range d.shards {
		ctrl, err := memctrl.New(shardCfg, opts.Mode, opts.Key, opts.Ctrl)
		if err != nil {
			return nil, fmt.Errorf("device: shard %d: %w", i, err)
		}
		s := &shard{id: i, dev: d, ctrl: ctrl}
		if opts.Telemetry {
			s.reg = telemetry.NewRegistry()
			ctrl.AttachTelemetry(s.reg)
			s.retired = s.reg.Counter("device_retired_requests_total")
			s.powerLoss = s.reg.Counter("device_power_losses_total")
			s.batches = s.reg.Counter("device_batches_total")
			s.batched = s.reg.Histogram("device_batch_size", telemetry.LinearBounds(1, 1, 8))
			s.coalesced = s.reg.Counter("device_coalesced_writes_total")
		}
		d.shards[i] = s
	}
	return d, nil
}

// Info describes the device.
func (d *Device) Info() Info {
	return Info{Shards: d.opts.Shards, CapacityBytes: d.opts.System.NVM.CapacityBytes, Mode: d.opts.Mode.String()}
}

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
	return int((addr / nvm.LineSize) % uint64(d.opts.Shards))
}

// localAddr translates a device address to the owning shard's local
// address space: global line g becomes local line g / Shards.
func (d *Device) localAddr(addr uint64) uint64 {
	return (addr / nvm.LineSize) / uint64(d.opts.Shards) * nvm.LineSize
}

// GlobalAddr is the inverse mapping: the device address of local line
// index (local/LineSize) on the given shard.
func (d *Device) GlobalAddr(shard int, local uint64) uint64 {
	return ((local/nvm.LineSize)*uint64(d.opts.Shards) + uint64(shard)) * nvm.LineSize
}

// admit is the one rejection order of every data operation: ErrClosed,
// then a misaligned or out-of-range address, then memctrl.ErrCrashed.
func (d *Device) admit(addr uint64) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if addr%nvm.LineSize != 0 {
		return fmt.Errorf("device: unaligned address %#x", addr)
	}
	if capacity := d.opts.System.NVM.CapacityBytes; addr >= capacity {
		return fmt.Errorf("device: address %#x beyond capacity %#x", addr, capacity)
	}
	if d.down.Load() {
		return memctrl.ErrCrashed
	}
	return nil
}

// do executes one data-plane operation in place under the owning shard's
// lock. The epoch is read before the lock is taken, so a caller still
// waiting for its shard when Crash advances the barrier is retired.
func (d *Device) do(op opcode, addr uint64, data *nvm.Line) (res BatchResult) {
	if err := d.admit(addr); err != nil {
		return BatchResult{Err: err}
	}
	epoch := d.epoch.Load()
	s := d.shards[d.ShardOf(addr)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.closed.Load() {
		return BatchResult{Err: ErrClosed}
	}
	s.batches.Inc()
	s.batched.Observe(1)
	s.exec(op, d.localAddr(addr), data, epoch, &res)
	return res
}

// Read services one 64-byte read. The returned time is the simulated
// latency of the access on its shard's clock.
func (d *Device) Read(addr uint64) (nvm.Line, sim.Time, error) {
	r := d.do(opRead, addr, nil)
	return r.Data, r.Latency, r.Err
}

// Write services one 64-byte write (encrypt, MAC, shadow log, WPQ on the
// owning shard). data is not retained past the call.
func (d *Device) Write(addr uint64, data *nvm.Line) (sim.Time, error) {
	r := d.do(opWrite, addr, data)
	return r.Latency, r.Err
}

// Drain waits until every write accepted by the shard owning addr has
// left its write pending queue (the per-shard sfence). Device-wide
// durability is Flush.
func (d *Device) Drain(addr uint64) error {
	return d.do(opDrain, addr, nil).Err
}

// powerCut takes the device down and advances the crash barrier. The two
// live in atomics so a power loss on one shard reaches callers executing
// on, or waiting for, every other shard immediately.
func (d *Device) powerCut() {
	d.down.Store(true)
	d.epoch.Add(1)
}

// control runs one control opcode on every shard, each under its own lock,
// and returns the responses in shard order. Callers hold d.ctl. The shards
// are independent and Recover and Flush are the slow control paths, so the
// visit is spread over one goroutine per P — the caller's included — each
// taking the next unvisited shard until none is left; the helpers are
// joined before control returns. With an inject.Hook installed on any shard
// the caller visits alone, in shard order: a chaos harness is numbering
// device-wide write boundaries, and a hook shared across shards is not
// thread-safe.
func (d *Device) control(op opcode) []response {
	out := make([]response, len(d.shards))
	var next atomic.Int64
	visit := func() {
		for i := int(next.Add(1)) - 1; i < len(d.shards); i = int(next.Add(1)) - 1 {
			s := d.shards[i]
			s.mu.Lock()
			out[i].report = s.exec(op, 0, nil, 0, &out[i].BatchResult)
			s.mu.Unlock()
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(d.shards))
	if d.hooked {
		workers = 1
	}
	var wg sync.WaitGroup
	for h := 1; h < workers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visit()
		}()
	}
	visit()
	wg.Wait()
	return out
}

func firstErr(rs []response) error {
	for _, r := range rs {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// Crash cuts power across the whole device: the epoch advances first, so
// every data operation still waiting behind the barrier is retired
// unexecuted, then each shard's controller drops its volatile state. The
// device rejects data operations until Recover.
func (d *Device) Crash() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	d.powerCut()
	return firstErr(d.control(opCrash))
}

// Recover rebuilds every shard after a crash and reports what each one
// reconstructed, in shard order. On success the device accepts data
// operations again. If a shard's recovery is itself cut by a power loss
// (nested chaos injection), the error is a *PowerError, the report holds
// the partial per-shard reports, and the device stays down: call Crash and
// Recover again.
func (d *Device) Recover() (*RecoveryReport, error) {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return nil, ErrClosed
	}
	rs := d.control(opRecover)
	rep := &RecoveryReport{Shards: make([]*memctrl.RecoveryReport, len(rs))}
	for i, r := range rs {
		rep.Shards[i] = r.report
	}
	err := firstErr(rs)
	if err == nil {
		d.down.Store(false)
	}
	return rep, err
}

// Flush writes back every dirty metadata block and drains the WPQ on all
// shards — the device-wide durability barrier a clean shutdown performs.
// Unlike Crash it does not fence the epoch: operations already waiting for
// a shard may execute before or after the flush reaches it.
func (d *Device) Flush() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return firstErr(d.control(opFlush))
}

// VerifyAll re-verifies the full NVM image of every shard.
func (d *Device) VerifyAll() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	return firstErr(d.control(opVerify))
}

// Stats sums the controller statistics across shards, reading each shard
// under its lock, so the sum reflects a consistent point in each stream.
func (d *Device) Stats() memctrl.Stats {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	var total memctrl.Stats
	if d.closed.Load() {
		return total
	}
	for _, s := range d.shards {
		s.mu.Lock()
		total.Add(s.ctrl.Stats())
		s.mu.Unlock()
	}
	return total
}

// SetShardHooks installs hooks[i] on shard i's controller stack (nil
// entries detach). len(hooks) must equal the shard count. One hook may
// fill several entries: control operations visit the shards one at a
// time, but data operations call a shard's hook from whichever goroutine
// issued them, so a shared hook needs its own locking under concurrent
// drivers.
func (d *Device) SetShardHooks(hooks []inject.Hook) error {
	if len(hooks) != len(d.shards) {
		return fmt.Errorf("device: got %d hooks for %d shards", len(hooks), len(d.shards))
	}
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	d.hooked = false
	for i, s := range d.shards {
		s.mu.Lock()
		s.ctrl.SetHook(hooks[i])
		s.mu.Unlock()
		if hooks[i] != nil {
			d.hooked = true
		}
	}
	return nil
}

// Snapshot merges the per-shard telemetry registries in shard order (an
// empty snapshot on a device built without Telemetry). Each shard's
// registry exports its controller stack's books, so it is read under that
// shard's lock. The result is deterministic whenever each shard's
// operation order is.
func (d *Device) Snapshot() *telemetry.Snapshot {
	merged := &telemetry.Snapshot{}
	for _, s := range d.shards {
		s.mu.Lock()
		merged.Merge(s.reg.Snapshot())
		s.mu.Unlock()
	}
	return merged
}

// Close shuts the device down and returns once every data operation that
// was executing has left its shard: those complete with their real result,
// every later one gets ErrClosed. Close is idempotent.
func (d *Device) Close() error {
	d.ctl.Lock()
	defer d.ctl.Unlock()
	if d.closed.Swap(true) {
		return nil
	}
	// Data operations check closed under their shard's lock, so taking
	// each lock once waits out the one executing there.
	for _, s := range d.shards {
		s.mu.Lock()
		s.mu.Unlock()
	}
	return nil
}
