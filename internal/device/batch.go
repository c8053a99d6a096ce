package device

import (
	"fmt"
	"time"

	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Batch op codes, the device-level vocabulary of a batched data-plane
// request. devnet's v3 batch frames carry these bytes on the wire, so
// they are fixed protocol constants, not an iota that may drift.
const (
	BatchRead  uint8 = 1
	BatchWrite uint8 = 2
	BatchDrain uint8 = 3
)

// BatchOp is one data-plane operation inside a batch. Addr is a device
// (global) address; Line is the write payload (ignored for reads and
// drains).
type BatchOp struct {
	Op   uint8
	Addr uint64
	Line nvm.Line
}

// BatchResult is the completion record of one batched op, written into
// the caller's result slice at the op's original index.
type BatchResult struct {
	Data    nvm.Line
	Latency sim.Time
	Err     error
}

// batchGroup is the per-shard slice of one batch: shard-local copies of
// the ops plus their original indices, and a reusable request/response
// pair so steady-state batch execution allocates nothing.
type batchGroup struct {
	ops  []BatchOp
	idx  []int32
	req  *request
	sent bool
}

// batchRun is the pooled scratch of one ExecBatch call.
type batchRun struct {
	groups []batchGroup
	used   []int32
}

// ExecBatch executes len(ops) data-plane operations as one unit: the ops
// are partitioned by shard, each shard's group is submitted as a single
// queue entry, and the shard worker coalesces and executes exactly that
// group — so the coalescing window is the batch itself, deterministic for
// a fixed batch composition regardless of queue-drain timing, and the
// whole batch costs one channel round-trip per shard instead of one per
// op.
//
// Per-op outcomes land in res at the op's index (len(res) must equal
// len(ops)). A full shard queue rejects that shard's entire group with a
// per-op *BusyError — none of the group's ops execute, so the caller may
// re-submit just those. ExecBatch itself only fails on length mismatch.
//
// Write coalescing within a group mirrors the worker's opportunistic
// batching: a write superseded by a later write to the same line (with no
// intervening read or drain) is dropped and acknowledged with its
// superseder's outcome at zero added latency.
func (d *Device) ExecBatch(ops []BatchOp, res []BatchResult) error {
	if len(ops) != len(res) {
		return fmt.Errorf("device: batch of %d ops with %d result slots", len(ops), len(res))
	}
	if len(ops) == 0 {
		return nil
	}
	br, _ := d.batchPool.Get().(*batchRun)
	if br == nil {
		br = &batchRun{}
	}
	if len(br.groups) < d.opts.Shards {
		br.groups = make([]batchGroup, d.opts.Shards)
	}
	br.used = br.used[:0]

	for i := range ops {
		op := &ops[i]
		var err error
		switch op.Op {
		case BatchRead, BatchWrite, BatchDrain:
			err = d.checkAddr(op.Addr)
		default:
			err = fmt.Errorf("device: unknown batch op %d", op.Op)
		}
		if err == nil && d.down.Load() {
			err = memctrl.ErrCrashed
		}
		if err != nil {
			res[i] = BatchResult{Err: err}
			continue
		}
		sh := int32(d.ShardOf(op.Addr))
		g := &br.groups[sh]
		if len(g.ops) == 0 {
			br.used = append(br.used, sh)
		}
		g.ops = append(g.ops, BatchOp{Op: op.Op, Addr: d.localAddr(op.Addr), Line: op.Line})
		g.idx = append(g.idx, int32(i))
	}

	epoch := d.epoch.Load()
	for _, sh := range br.used {
		g := &br.groups[sh]
		if g.req == nil {
			g.req = &request{resp: make(chan response, 1)}
		}
		g.req.op = opBatch
		g.req.epoch = epoch
		g.req.bops, g.req.bidx, g.req.bres = g.ops, g.idx, res
		s := d.shards[sh]
		d.subMu.RLock()
		if d.closed.Load() {
			d.subMu.RUnlock()
			for _, ix := range g.idx {
				res[ix] = BatchResult{Err: ErrClosed}
			}
			continue
		}
		select {
		case s.reqs <- g.req:
			d.subMu.RUnlock()
			g.sent = true
		default:
			pending := len(s.reqs)
			d.subMu.RUnlock()
			s.busy.Inc()
			err := &BusyError{Shard: s.id, Pending: pending, RetryAfter: s.retryHint(pending)}
			for _, ix := range g.idx {
				res[ix] = BatchResult{Err: err}
			}
		}
	}
	for _, sh := range br.used {
		g := &br.groups[sh]
		if g.sent {
			<-g.req.resp
			g.req.bops, g.req.bidx, g.req.bres = nil, nil, nil
		}
		g.ops, g.idx = g.ops[:0], g.idx[:0]
		g.sent = false
	}
	d.batchPool.Put(br)
	return nil
}

// batchOpcode maps a validated wire op code to the shard opcode.
func batchOpcode(op uint8) opcode {
	switch op {
	case BatchRead:
		return opRead
	case BatchWrite:
		return opWrite
	default:
		return opDrain
	}
}

// execBatch runs one shard group of a batch on the worker goroutine:
// coalesce writes within the group, execute the survivors in order, and
// write each op's outcome into the batch's shared result slice at its
// original index (shards own disjoint index sets, so concurrent workers
// never touch the same slot). The group-local request s.breq is reused
// per op so the loop allocates nothing.
func (s *shard) execBatch(r *request) {
	ops, idx, out := r.bops, r.bidx, r.bres
	s.batches.Inc()
	s.batched.Observe(uint64(len(ops)))

	s.planReset()
	for i := range ops {
		s.planOp(i, batchOpcode(ops[i].Op), ops[i].Addr)
	}
	for i := range ops {
		if _, dropped := s.supersededBy[i]; dropped {
			s.coalesced.Inc()
			continue
		}
		s.breq.op = batchOpcode(ops[i].Op)
		s.breq.addr = ops[i].Addr
		s.breq.epoch = r.epoch
		s.breq.data = nil
		if s.breq.op == opWrite {
			s.breq.data = &ops[i].Line
		}
		start := time.Now()
		res := s.exec(&s.breq)
		s.svc.observe(time.Since(start))
		out[idx[i]] = BatchResult{Data: res.data, Latency: res.latency, Err: res.err}
	}
	for i := range ops {
		if j, ok := s.absorber(i); ok {
			// Mirror the absorbing write's outcome at zero added latency.
			out[idx[i]] = BatchResult{Err: out[idx[j]].Err}
		}
	}
}
