// Package chaos is the crash-and-fault campaign harness. One scenario
// runner drives a deterministic workload through a stack — a bare
// memctrl.Controller, the sharded device.Device, the tenant.Service over
// it, or the device served over TCP behind a fault proxy — while
// inject.Hooks cut power at chosen write boundaries (and, on the
// controller, sprinkle seeded device faults), then recovers it and applies
// one oracle to every stack: every acknowledged write and read holds
// committed content, the in-flight write holds its old or its new value,
// recovery reports account for what they tracked and lose nothing without
// faults, and the image verifies and survives a clean crash/recover round.
// Every scenario is fully determined by its config, so any failure is
// reproducible from the one-line command the harness prints.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"soteria/internal/inject"
	"soteria/internal/nvm"
)

// AppliedFault records one device fault the injector applied. The seed
// makes the schedule reproducible; the record makes failure reports
// readable.
type AppliedFault struct {
	Boundary int
	Class    string // "bit", "word" or "line"
	Addr     uint64
	Bit      uint
	Word     int
}

func (f AppliedFault) String() string {
	switch f.Class {
	case "bit":
		return fmt.Sprintf("boundary %d: flip bit %d of line %#x", f.Boundary, f.Bit, f.Addr)
	case "word":
		return fmt.Sprintf("boundary %d: kill word %d of line %#x", f.Boundary, f.Word, f.Addr)
	default:
		return fmt.Sprintf("boundary %d: kill line %#x", f.Boundary, f.Addr)
	}
}

// Injector is one device-wide write-boundary counter fed by per-shard
// hooks. It numbers write boundaries following the conventions documented
// in package inject (each device write outside a sealed section is one
// boundary; a sealed transaction is a single boundary at its SealBegin;
// nested seals ride inside the outer one). Each shard's hook keeps its own
// SealTracker, since seal nesting is per-controller state, so crashing "at
// boundary k" means the k-th boundary the device as a whole crosses,
// whichever shard crosses it; a bare controller installs the one hook of
// a one-shard injector. At a boundary the injector counts it, then — if
// armed — may apply a seeded device fault (the controller stack's
// schedule) and panics with inject.PowerLoss at the target.
//
// Boundary numbering is deterministic exactly when the request order is —
// under the closed-loop drive of the scenario runner. Concurrent drivers
// (the recovery tests in internal/device) still get a valid crash at
// *some* boundary; they must not assume which.
type Injector struct {
	mu         sync.Mutex
	hooks      []*shardHook
	boundary   int
	crashAt    int
	fired      bool
	firedShard int
	disarmed   bool
	// down, when set, reports the device down; boundaries crossed then (a
	// kill's crash and restart recovery) are neither counted nor armed.
	down func() bool

	// The optional fault schedule: at each armed boundary, with
	// probability faultRate, one fault on a line of dev drawn from rng.
	dev       *nvm.Device
	rng       *rand.Rand
	faultRate float64
	applied   []AppliedFault
}

// NewInjector builds an injector that cuts power at the given boundary
// (negative: never).
func NewInjector(crashAt int) *Injector {
	return &Injector{crashAt: crashAt, firedShard: -1}
}

// ShardHooks returns one hook per shard, suitable for
// device.SetShardHooks (or, with n = 1, memctrl.Controller.SetHook).
func (in *Injector) ShardHooks(n int) []inject.Hook {
	in.hooks = make([]*shardHook, n)
	hooks := make([]inject.Hook, n)
	for i := range hooks {
		in.hooks[i] = &shardHook{in: in, shard: i}
		hooks[i] = in.hooks[i]
	}
	return hooks
}

// Boundaries returns the number of boundaries counted so far.
func (in *Injector) Boundaries() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.boundary
}

// Fired reports whether the crash trigger went off, and on which shard.
func (in *Injector) Fired() (bool, int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired, in.firedShard
}

// Disarm stops both crash targeting and fault injection. Boundary
// counting continues, so phase totals stay meaningful.
func (in *Injector) Disarm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.disarmed = true
	in.crashAt = -1
	in.faultRate = 0
}

// Rearm restarts boundary numbering at zero with a fresh crash target, so
// the recovery that follows a power loss can be swept independently. It
// ends probabilistic fault injection — the fault schedule models wear
// during operation, not during recovery — and clears any seal depth left
// dangling by the PowerLoss unwind.
func (in *Injector) Rearm(crashAt int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.boundary, in.crashAt = 0, crashAt
	in.fired, in.firedShard = false, -1
	in.faultRate = 0
	in.disarmed = false
	for _, h := range in.hooks {
		h.seals.Reset()
	}
}

// hit is called by a shard hook at each boundary crossing; it panics with
// inject.PowerLoss (unwinding that shard's in-flight operation) when the
// crossing is the armed one.
func (in *Injector) hit(shard int) {
	if in.down != nil && in.down() {
		return
	}
	in.mu.Lock()
	b := in.boundary
	in.boundary++
	fire := false
	if !in.disarmed {
		if in.faultRate > 0 && in.rng.Float64() < in.faultRate {
			in.applyFault(b)
		}
		fire = in.crashAt >= 0 && b == in.crashAt
	}
	if fire {
		in.fired, in.firedShard = true, shard
	}
	in.mu.Unlock()
	if fire {
		panic(inject.PowerLoss{Boundary: b})
	}
}

// applyFault injects one random fault into a random previously-written
// line, drawing the class from the granularities internal/faultsim models:
// a transient cell upset (bit), a dead chip word (word — one uncorrectable
// ECC codeword) or a row failure at line scale (line).
func (in *Injector) applyFault(b int) {
	var lines []uint64
	in.dev.ForEachTouched(func(a uint64) { lines = append(lines, a) })
	if len(lines) == 0 {
		return
	}
	addr := lines[in.rng.Intn(len(lines))]
	f := AppliedFault{Boundary: b, Addr: addr}
	switch p := in.rng.Float64(); {
	case p < 0.6:
		f.Class, f.Bit = "bit", uint(in.rng.Intn(nvm.LineSize*8))
		in.dev.FlipBit(addr, f.Bit)
	case p < 0.9:
		f.Class, f.Word = "word", in.rng.Intn(nvm.LineSize/8)
		in.dev.CorruptWord(addr, f.Word)
	default:
		f.Class = "line"
		in.dev.CorruptLine(addr)
	}
	in.applied = append(in.applied, f)
}

// shardHook adapts one shard's event stream to the shared counter. It is
// only ever called under its shard's lock, so the seal tracker needs no
// locking of its own.
type shardHook struct {
	in    *Injector
	shard int
	seals inject.SealTracker
}

// Event implements inject.Hook. Act before Advance: if the boundary
// panics at an outermost SealBegin, no seal has opened yet and the unwind
// leaves the tracker balanced.
func (h *shardHook) Event(ev inject.Event) {
	if h.seals.IsBoundary(ev) {
		h.in.hit(h.shard)
	}
	h.seals.Advance(ev)
}
