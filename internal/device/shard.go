package device

import (
	"time"

	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
	"soteria/internal/telemetry"
)

// opcode selects the operation a request carries.
type opcode uint8

const (
	opRead opcode = iota
	opWrite
	opDrain // per-shard WPQ drain (sfence)
	// Control plane (broadcast under the device control mutex; these skip
	// the epoch barrier because they implement it).
	opFlush
	opCrash
	opRecover
	opVerify
	opStats
	opHook
	opStop
	// opBatch carries one shard's slice of an ExecBatch call: the worker
	// coalesces and executes exactly that group as a unit (batch.go).
	// Appended last so the data-plane opcodes recorded in traces
	// (opRead..opDrain) keep their values.
	opBatch
)

// request is one unit of work on a shard queue. addr is shard-local.
type request struct {
	op    opcode
	addr  uint64
	data  *nvm.Line
	hook  inject.Hook
	epoch uint64
	resp  chan response // buffered(1): the worker never blocks responding

	// opBatch only: this shard's slice of one ExecBatch call — shard-local
	// ops, their original indices, and the batch's shared result slice
	// (shards own disjoint index sets, so concurrent workers never write
	// the same slot).
	bops []BatchOp
	bidx []int32
	bres []BatchResult
}

// response carries everything any opcode can return.
type response struct {
	data    nvm.Line
	latency sim.Time
	report  *memctrl.RecoveryReport
	stats   memctrl.Stats
	err     error
}

// shard couples one shardCore (controller, clock, execution state machine)
// with its queue, worker state and metric handles. Everything below the
// queue is touched only by the worker goroutine, preserving memctrl's
// single-threaded contract.
type shard struct {
	*shardCore
	dev      *Device
	reqs     chan *request
	batchMax int

	// Coalescing scratch (worker-only), shared by runBatch and execBatch —
	// the worker runs one or the other, never nested — and reused across
	// calls so the steady-state loops perform no per-batch allocations.
	supersededBy map[int]int    // dropped write index -> absorbing write index
	lastWrite    map[uint64]int // local line addr -> pending write index
	results      []response

	// breq is execBatch's reusable per-op request.
	breq request

	// svc estimates wall-clock nanoseconds per request for retry hints.
	svc ewma

	batches   *telemetry.Counter
	batched   *telemetry.Histogram
	coalesced *telemetry.Counter
	busy      *telemetry.Counter
}

// retryHint converts queue depth into a wall-clock backoff suggestion.
func (s *shard) retryHint(pending int) time.Duration {
	per := s.svc.value()
	if per <= 0 {
		per = time.Microsecond
	}
	return time.Duration(pending+1) * per
}

// run is the shard worker: drain a batch, coalesce, execute, respond. An
// ExecBatch group (opBatch) is its own unit of coalescing and accounting,
// so it is never folded into a queue slice: one met while filling a slice
// ends the slice and is carried over as the next unit.
func (s *shard) run() {
	defer s.dev.wg.Done()
	batch := make([]*request, 0, s.batchMax)
	var carry *request
	for {
		req := carry
		carry = nil
		if req == nil {
			req = <-s.reqs
		}
		if req.op == opBatch {
			s.execBatch(req)
			req.resp <- response{}
			continue
		}
		batch = append(batch[:0], req)
		// Opportunistically extend the batch with whatever is already
		// queued, up to the batch bound; never wait for more.
	fill:
		for len(batch) < s.batchMax {
			select {
			case r := <-s.reqs:
				if r.op == opBatch {
					carry = r
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		if !s.runBatch(batch) {
			if carry != nil {
				carry.resp <- response{err: ErrClosed}
			}
			return
		}
	}
}

// Write coalescing before WPQ admission: within one unit (a queue slice or
// an ExecBatch group) a write superseded by a later write to the same line
// — with no read of that line and no barrier-like operation in between —
// is dropped and acknowledged with its superseder's outcome, exactly the
// semantics of an ADR write-combining buffer. planReset starts a unit,
// planOp feeds it op i in order; supersededBy then holds the dropped
// indices and absorber resolves each to its surviving write.

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
		// Drains, flushes and control ops order against every write.
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

// runBatch coalesces and executes one queue slice; false means opStop was
// seen and the worker must exit (any requests after the stop are answered
// with ErrClosed — Close has already fenced out new senders, so the tail
// is finite and fully drained here).
func (s *shard) runBatch(batch []*request) bool {
	s.batches.Inc()
	s.batched.Observe(uint64(len(batch)))

	s.planReset()
	for i, r := range batch {
		s.planOp(i, r.op, r.addr)
	}

	if cap(s.results) < len(batch) {
		s.results = make([]response, len(batch))
	}
	results := s.results[:len(batch)]
	for i := range results {
		results[i] = response{}
	}
	stopAt := -1
	for i, r := range batch {
		if _, dropped := s.supersededBy[i]; dropped {
			s.coalesced.Inc()
			continue
		}
		if stopAt >= 0 {
			results[i] = response{err: ErrClosed}
			continue
		}
		if r.op == opStop {
			stopAt = i
			continue
		}
		start := time.Now()
		results[i] = s.exec(r)
		s.svc.observe(time.Since(start))
	}
	for i, r := range batch {
		if j, ok := s.absorber(i); ok {
			// The absorbing write carries this one's durability; mirror
			// its outcome with zero added latency.
			results[i] = response{err: results[j].err}
		}
		r.resp <- results[i]
	}
	if stopAt >= 0 {
		// Drain the finite tail left by senders that raced Close's fence.
		for {
			select {
			case r := <-s.reqs:
				r.resp <- response{err: ErrClosed}
			default:
				return false
			}
		}
	}
	return true
}

// Device is the shardEnv of its goroutine-backed shards: the crash barrier
// and the down bit live in atomics so a power cut on one worker propagates
// to concurrently executing shards immediately.
func (d *Device) epochNow() uint64 { return d.epoch.Load() }
func (d *Device) isDown() bool     { return d.down.Load() }
func (d *Device) powerCut() {
	d.down.Store(true)
	d.epoch.Add(1)
}
