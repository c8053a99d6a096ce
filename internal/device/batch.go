package device

import (
	"fmt"

	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// Batch op codes, the device-level vocabulary of a batched data-plane
// request. devnet's batch frames carry these bytes on the wire, so
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
// the ops plus their original indices.
type batchGroup struct {
	ops []BatchOp
	idx []int32
}

// batchRun is the pooled scratch of one ExecBatch call.
type batchRun struct {
	groups []batchGroup
	used   []int32
}

// ExecBatch executes len(ops) data-plane operations as one unit: the ops
// are partitioned by shard and each shard's group is coalesced and executed
// under one hold of that shard's lock — so the coalescing window is the
// batch itself, deterministic for a fixed batch composition, and the whole
// batch costs one lock acquisition per shard instead of one per op. Groups
// run one after another on the caller's goroutine, in order of each shard's
// first op in the batch.
//
// Per-op outcomes land in res at the op's index (len(res) must equal
// len(ops)); an op is rejected in the same order as a single Read, Write or
// Drain, with an unknown op code ranking with the address errors. ExecBatch
// itself only fails on length mismatch.
//
// Write coalescing within a group: a write superseded by a later write to
// the same line (with no intervening read or drain) is dropped and
// acknowledged with its superseder's outcome at zero added latency.
func (d *Device) ExecBatch(ops []BatchOp, res []BatchResult) error {
	if len(ops) != len(res) {
		return fmt.Errorf("device: batch of %d ops with %d result slots", len(ops), len(res))
	}
	if len(ops) == 0 {
		return nil
	}
	br, _ := d.batchPool.Get().(*batchRun)
	if br == nil {
		br = &batchRun{groups: make([]batchGroup, d.opts.Shards)}
	}
	br.used = br.used[:0]

	for i := range ops {
		op := &ops[i]
		err := d.admit(op.Addr)
		if err != ErrClosed && (op.Op < BatchRead || op.Op > BatchDrain) {
			err = fmt.Errorf("device: unknown batch op %d", op.Op)
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
		d.shards[sh].execGroup(g.ops, g.idx, res, epoch)
		g.ops, g.idx = g.ops[:0], g.idx[:0]
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

// execGroup runs one shard's group of a batch under the shard lock:
// coalesce writes within the group, execute the survivors in order, and
// write each op's outcome into the batch's result slice at its original
// index.
func (s *shard) execGroup(ops []BatchOp, idx []int32, out []BatchResult, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dev.closed.Load() {
		for _, ix := range idx {
			out[ix] = BatchResult{Err: ErrClosed}
		}
		return
	}
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
		res := s.exec(batchOpcode(ops[i].Op), ops[i].Addr, &ops[i].Line, epoch)
		out[idx[i]] = BatchResult{Data: res.data, Latency: res.latency, Err: res.err}
	}
	for i := range ops {
		if j, ok := s.absorber(i); ok {
			// Mirror the absorbing write's outcome at zero added latency.
			out[idx[i]] = BatchResult{Err: out[idx[j]].Err}
		}
	}
}
