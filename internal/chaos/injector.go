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

// Injector implements inject.Hook. It numbers write boundaries following
// the conventions documented in package inject (each device write outside
// a sealed section is one boundary; a sealed transaction is a single
// boundary at its SealBegin; nested seals ride inside the outer one),
// panics with inject.PowerLoss at a target boundary, and applies seeded
// probabilistic device faults at boundaries.
type Injector struct {
	// Boundary is the index the next write boundary will get.
	Boundary int
	// CrashAt cuts power at that boundary; negative disables.
	CrashAt int
	// Fired reports whether the crash trigger went off.
	Fired bool
	// Applied lists the device faults injected so far.
	Applied []AppliedFault

	dev       *nvm.Device
	rng       *rand.Rand
	faultRate float64
	// faultCeil bounds fault targets from above: addresses at or past it
	// model on-chip ADR SRAM (the shadow BMT), which NVM cell faults
	// cannot reach. Zero means no bound.
	faultCeil uint64
	seals     inject.SealTracker
	disarmed  bool
}

// NewInjector builds an injector over the given device. rng drives the
// probabilistic fault schedule (may be nil when faultRate is zero).
func NewInjector(dev *nvm.Device, rng *rand.Rand, faultRate float64, faultCeil uint64) *Injector {
	return &Injector{dev: dev, CrashAt: -1, rng: rng, faultRate: faultRate, faultCeil: faultCeil}
}

// StopFaults ends probabilistic fault injection; crash targeting stays
// armed. Called once power has been lost: the fault schedule models wear
// during operation, not during the recovery that follows.
func (in *Injector) StopFaults() { in.faultRate = 0 }

// Disarm stops both crash targeting and fault injection. Boundary counting
// continues, so phase totals stay meaningful.
func (in *Injector) Disarm() {
	in.disarmed = true
	in.CrashAt = -1
	in.faultRate = 0
}

// Rearm restarts boundary numbering at zero with a fresh crash target, so
// a follow-on phase (recovery) can be swept independently. It also clears
// any seal depth left dangling by the PowerLoss unwind.
func (in *Injector) Rearm(crashAt int) {
	in.Boundary = 0
	in.CrashAt = crashAt
	in.Fired = false
	in.seals.Reset()
	in.disarmed = false
}

// Event implements inject.Hook.
func (in *Injector) Event(ev inject.Event) {
	// Act before Advance: if the boundary panics at an outermost SealBegin,
	// no seal has opened yet and the unwind leaves the tracker balanced.
	if in.seals.IsBoundary(ev) {
		in.boundary()
	}
	in.seals.Advance(ev)
}

func (in *Injector) boundary() {
	b := in.Boundary
	in.Boundary++
	if in.disarmed {
		return
	}
	if in.faultRate > 0 && in.rng.Float64() < in.faultRate {
		in.applyFault(b)
	}
	if in.CrashAt >= 0 && b == in.CrashAt {
		in.Fired = true
		panic(inject.PowerLoss{Boundary: b})
	}
}

// applyFault injects one random fault into a random previously-written
// line, drawing the class from the granularities internal/faultsim models:
// a transient cell upset (bit), a dead chip word (word — one uncorrectable
// ECC codeword) or a row failure at line scale (line).
func (in *Injector) applyFault(b int) {
	var lines []uint64
	in.dev.ForEachTouched(func(a uint64) {
		if in.faultCeil == 0 || a < in.faultCeil {
			lines = append(lines, a)
		}
	})
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
	in.Applied = append(in.Applied, f)
}
