package device

import (
	"sync"

	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// opcode selects the operation exec runs on a shard.
type opcode uint8

const (
	opRead opcode = iota
	opWrite
	opDrain // per-shard WPQ drain (sfence)
	// Control plane (run on every shard by Device.control; these skip the
	// epoch barrier because they implement it).
	opFlush
	opCrash
	opRecover
	opVerify
)

// response carries everything any opcode can return.
type response struct {
	data    nvm.Line
	latency sim.Time
	report  *memctrl.RecoveryReport
	err     error
}

// shard is one slice of the device: a controller, its simulated clock and
// the bookkeeping its execution path touches. mu serializes every access to
// the fields below it, preserving memctrl's single-threaded contract; the
// caller that holds it executes in place on its own goroutine.
type shard struct {
	mu sync.Mutex

	id   int
	dev  *Device
	ctrl *memctrl.Controller
	reg  *telemetry.Registry

	// now is the shard's private simulated clock.
	now sim.Time

	// Coalescing scratch, reused across ExecBatch groups so the steady
	// state allocates nothing.
	supersededBy map[int]int    // dropped write index -> absorbing write index
	lastWrite    map[uint64]int // local line addr -> pending write index

	retired   *telemetry.Counter
	powerLoss *telemetry.Counter
	batches   *telemetry.Counter
	batched   *telemetry.Histogram
	coalesced *telemetry.Counter
}

// exec runs one operation on the controller, converting an inject.PowerLoss
// unwind into a typed error and a device-wide crash barrier. addr is
// shard-local; epoch is the barrier generation the caller read before it
// took s.mu.
func (s *shard) exec(op opcode, addr uint64, data *nvm.Line, epoch uint64) (res response) {
	d := s.dev
	if op <= opDrain {
		// A data op stamped before the last crash barrier is retired
		// unexecuted: power was lost while it waited for the shard.
		if epoch < d.epoch.Load() {
			s.retired.Inc()
			return response{err: ErrRetired}
		}
		if d.down.Load() {
			return response{err: memctrl.ErrCrashed}
		}
	}

	defer func() {
		if p := recover(); p != nil {
			if pl, ok := p.(inject.PowerLoss); ok {
				// Simulated power cut mid-operation: take the whole device
				// down and retire everything waiting behind the barrier.
				s.powerLoss.Inc()
				d.powerCut()
				res = response{err: &PowerError{Shard: s.id, Boundary: pl.Boundary}}
				return
			}
			res = response{err: &PanicError{Shard: s.id, Value: p}}
		}
	}()

	before := s.now
	switch op {
	case opRead:
		res.data, s.now, res.err = s.ctrl.ReadBlock(s.now, addr)
	case opWrite:
		s.now, res.err = s.ctrl.WriteBlock(s.now, addr, data)
	case opDrain:
		s.now = s.ctrl.DrainWPQ(s.now)
	case opFlush:
		s.now = s.ctrl.FlushAll(s.now)
	case opCrash:
		res.err = s.ctrl.Crash()
	case opRecover:
		res.report, res.err = s.ctrl.Recover()
	case opVerify:
		res.err = s.ctrl.VerifyAll()
	}
	res.latency = s.now - before
	return res
}

// Write coalescing: within one ExecBatch shard group a write superseded by
// a later write to the same line — with no read of that line and no drain
// in between — is dropped and acknowledged with its superseder's outcome,
// exactly the semantics of an ADR write-combining buffer. planReset starts
// a group, planOp feeds it op i in order; supersededBy then holds the
// dropped indices and absorber resolves each to its surviving write.

func (s *shard) planReset() {
	if s.supersededBy == nil {
		s.supersededBy = make(map[int]int)
		s.lastWrite = make(map[uint64]int)
	}
	clear(s.supersededBy)
	clear(s.lastWrite)
}

func (s *shard) planOp(i int, op opcode, addr uint64) {
	switch op {
	case opWrite:
		if j, ok := s.lastWrite[addr]; ok {
			s.supersededBy[j] = i
		}
		s.lastWrite[addr] = i
	case opRead:
		delete(s.lastWrite, addr)
	default:
		// A drain orders against every write.
		clear(s.lastWrite)
	}
}

// absorber returns the surviving write that carries dropped op i's
// durability. Chains resolve because a superseder is never itself
// superseded by an earlier index.
func (s *shard) absorber(i int) (int, bool) {
	j, ok := s.supersededBy[i]
	if !ok {
		return 0, false
	}
	for {
		k, again := s.supersededBy[j]
		if !again {
			return j, true
		}
		j = k
	}
}
