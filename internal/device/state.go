package device

import (
	"fmt"

	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// shardEnv is what a shard's execution state machine needs from its host:
// the crash-barrier generation, the device-down bit, and a way to report a
// mid-operation power loss. The goroutine Device backs it with atomics
// (cuts propagate immediately across concurrent workers); the
// single-threaded Engine backs it with plain fields.
type shardEnv interface {
	epochNow() uint64
	isDown() bool
	// powerCut reports that an inject.PowerLoss unwound an operation on
	// this shard; the host takes the device down and advances the barrier.
	powerCut()
}

// shardCore is the pure-data per-shard state machine shared by the
// goroutine-backed Device and the synchronous Engine: one controller, one
// simulated clock, and the counters its execution path touches. Nothing in
// here knows about channels or goroutines; exec is called by exactly one
// host at a time.
type shardCore struct {
	id   int
	env  shardEnv
	ctrl *memctrl.Controller
	reg  *telemetry.Registry

	// now is the shard's private simulated clock.
	now sim.Time

	retired   *telemetry.Counter
	powerLoss *telemetry.Counter
}

// exec runs one request on the controller, converting an inject.PowerLoss
// unwind into a typed error and a device-wide crash barrier.
func (s *shardCore) exec(r *request) (res response) {
	// Data-plane requests admitted before the last crash barrier are
	// retired unexecuted: power was lost while they sat in the queue.
	switch r.op {
	case opRead, opWrite, opDrain:
		if r.epoch < s.env.epochNow() {
			s.retired.Inc()
			return response{err: ErrRetired}
		}
		if s.env.isDown() {
			return response{err: memctrl.ErrCrashed}
		}
	}

	defer func() {
		if p := recover(); p != nil {
			if pl, ok := p.(inject.PowerLoss); ok {
				// Simulated power cut mid-operation: take the whole device
				// down and retire everything still queued behind us.
				s.powerLoss.Inc()
				s.env.powerCut()
				res = response{err: &PowerError{Shard: s.id, Boundary: pl.Boundary}}
				return
			}
			res = response{err: &PanicError{Shard: s.id, Value: p}}
		}
	}()

	switch r.op {
	case opRead:
		before := s.now
		data, now, err := s.ctrl.ReadBlock(s.now, r.addr)
		s.now = now
		return response{data: data, latency: now - before, err: err}
	case opWrite:
		before := s.now
		now, err := s.ctrl.WriteBlock(s.now, r.addr, r.data)
		s.now = now
		return response{latency: now - before, err: err}
	case opDrain:
		before := s.now
		s.now = s.ctrl.DrainWPQ(s.now)
		return response{latency: s.now - before}
	case opFlush:
		before := s.now
		s.now = s.ctrl.FlushAll(s.now)
		return response{latency: s.now - before}
	case opCrash:
		return response{err: s.ctrl.Crash()}
	case opRecover:
		rep, err := s.ctrl.Recover()
		return response{report: rep, err: err}
	case opVerify:
		return response{err: s.ctrl.VerifyAll()}
	case opStats:
		return response{stats: s.ctrl.Stats()}
	case opHook:
		s.ctrl.SetHook(r.hook)
		return response{}
	default:
		return response{err: ErrClosed}
	}
}

// shardOf maps a device data address to its shard: global line g lives on
// shard g mod shards (line interleaving).
func shardOf(addr uint64, shards int) int {
	return int((addr / nvm.LineSize) % uint64(shards))
}

// toLocalAddr translates a device address to the owning shard's local
// address space: global line g becomes local line g / shards.
func toLocalAddr(addr uint64, shards int) uint64 {
	return (addr / nvm.LineSize) / uint64(shards) * nvm.LineSize
}

// checkLineAddr validates alignment and range of a device data address.
func checkLineAddr(addr, capacity uint64) error {
	if addr%nvm.LineSize != 0 {
		return fmt.Errorf("device: unaligned address %#x", addr)
	}
	if addr >= capacity {
		return fmt.Errorf("device: address %#x beyond capacity %#x", addr, capacity)
	}
	return nil
}
