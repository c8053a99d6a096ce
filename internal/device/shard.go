package device

import (
	"math/bits"
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

// response carries everything any opcode can return: a data op's
// outcome, and the report of a recovery.
type response struct {
	BatchResult
	report *memctrl.RecoveryReport
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
	absorber []int32    // per group position: the surviving write, or -1
	table    []planSlot // open writes by line; see plan
	gen      uint32     // the table's current generation

	retired   *telemetry.Counter
	powerLoss *telemetry.Counter
	batches   *telemetry.Counter
	batched   *telemetry.Histogram
	coalesced *telemetry.Counter
}

// exec runs one operation on the controller, converting an inject.PowerLoss
// unwind into a typed error and a device-wide crash barrier. addr is
// shard-local; epoch is the barrier generation the caller read before it
// took s.mu. The outcome is written into res, which a batch points at the
// caller's result slot; the report of an opRecover is returned.
func (s *shard) exec(op opcode, addr uint64, data *nvm.Line, epoch uint64, res *BatchResult) (report *memctrl.RecoveryReport) {
	d := s.dev
	if op <= opDrain {
		// A data op stamped before the last crash barrier is retired
		// unexecuted: power was lost while it waited for the shard.
		if epoch < d.epoch.Load() {
			s.retired.Inc()
			*res = BatchResult{Err: ErrRetired}
			return nil
		}
		if d.down.Load() {
			*res = BatchResult{Err: memctrl.ErrCrashed}
			return nil
		}
	}

	defer func() {
		if p := recover(); p != nil {
			if pl, ok := p.(inject.PowerLoss); ok {
				// Simulated power cut mid-operation: take the whole device
				// down and retire everything waiting behind the barrier.
				s.powerLoss.Inc()
				d.powerCut()
				*res, report = BatchResult{Err: &PowerError{Shard: s.id, Boundary: pl.Boundary}}, nil
				return
			}
			*res, report = BatchResult{Err: &PanicError{Shard: s.id, Value: p}}, nil
		}
	}()

	*res = BatchResult{} // a batch's result slot may hold an old outcome
	before := s.now
	switch op {
	case opRead:
		res.Data, s.now, res.Err = s.ctrl.ReadBlock(s.now, addr)
	case opWrite:
		s.now, res.Err = s.ctrl.WriteBlock(s.now, addr, data)
	case opDrain:
		s.now = s.ctrl.DrainWPQ(s.now)
	case opFlush:
		s.now = s.ctrl.FlushAll(s.now)
	case opCrash:
		res.Err = s.ctrl.Crash()
	case opRecover:
		report, res.Err = s.ctrl.Recover()
	case opVerify:
		res.Err = s.ctrl.VerifyAll()
	}
	res.Latency = s.now - before
	return report
}

// Write coalescing: within one ExecBatch shard group a write superseded by
// a later write to the same line — with no read of that line and no drain
// in between — is dropped and acknowledged with its superseder's outcome,
// exactly the semantics of an ADR write-combining buffer.

// planSlot is one line's entry in the plan's open-addressed table: the
// group position of its open write (-1 when a read has fenced it), valid
// while gen is the table's current generation.
type planSlot struct {
	addr uint64
	gen  uint32
	open int32
}

// plan returns, for every position k of the group (the ops at idx), the
// position of the surviving write that carries op k's durability, or -1
// when op k executes itself. The lines' open writes live in a table of at
// least twice the group's size, indexed by a hash of the line: a wire batch
// may put thousands of distinct lines in one group, too many to scan per
// op. A new generation starts each group and each drain, which empties the
// table without touching it.
func (s *shard) plan(ops []BatchOp, idx []int32) []int32 {
	size := 2 << bits.Len(uint(len(idx)))
	if len(s.table) < size {
		s.table = make([]planSlot, size)
	}
	table := s.table[:size]
	s.nextGen()
	s.absorber = s.absorber[:0]
	for k, ix := range idx {
		s.absorber = append(s.absorber, -1)
		op, addr := batchOpcode(ops[ix].Op), ops[ix].Addr
		if op == opDrain {
			// A drain orders against every write.
			s.nextGen()
			continue
		}
		h := int(addr/nvm.LineSize*0x9E3779B97F4A7C15>>32) & (size - 1)
		for table[h].gen == s.gen && table[h].addr != addr {
			h = (h + 1) & (size - 1)
		}
		e := &table[h]
		if e.gen != s.gen {
			*e = planSlot{addr: addr, gen: s.gen, open: -1}
		}
		if op == opWrite {
			if e.open >= 0 {
				s.absorber[e.open] = int32(k)
			}
			e.open = int32(k)
		} else {
			e.open = -1
		}
	}
	// A superseder is always later and may itself be superseded: resolve
	// each chain to its last write, back to front.
	for k := len(s.absorber) - 1; k >= 0; k-- {
		if j := s.absorber[k]; j >= 0 && s.absorber[j] >= 0 {
			s.absorber[k] = s.absorber[j]
		}
	}
	return s.absorber
}

// nextGen starts a new plan generation; once the counter wraps, the
// table is cleared so no entry of an old generation can look current.
func (s *shard) nextGen() {
	s.gen++
	if s.gen == 0 {
		clear(s.table)
		s.gen = 1
	}
}
