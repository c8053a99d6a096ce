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

// batchRun is the pooled scratch of one ExecBatch call: per shard, the
// indices of that shard's ops in the batch, and the shards in order of
// their first op.
type batchRun struct {
	groups [][]int32
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
		br = &batchRun{groups: make([][]int32, d.opts.Shards)}
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
		if len(br.groups[sh]) == 0 {
			br.used = append(br.used, sh)
		}
		br.groups[sh] = append(br.groups[sh], int32(i))
	}

	epoch := d.epoch.Load()
	for _, sh := range br.used {
		d.shards[sh].execGroup(ops, br.groups[sh], res, epoch)
		br.groups[sh] = br.groups[sh][:0]
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

// execGroup runs one shard's group of a batch — the ops at idx, in order —
// under the shard lock: coalesce writes within the group, execute the
// survivors in order straight into the batch's result slice at each op's
// index, and acknowledge each dropped write with its absorber's outcome.
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
	s.batched.Observe(uint64(len(idx)))

	absorber := s.plan(ops, idx)
	for k, ix := range idx {
		if absorber[k] >= 0 {
			s.coalesced.Inc()
			continue
		}
		op := &ops[ix]
		s.exec(batchOpcode(op.Op), s.dev.localAddr(op.Addr), &op.Line, epoch, &out[ix])
	}
	for k, ix := range idx {
		if j := absorber[k]; j >= 0 {
			// Mirror the absorbing write's outcome at zero added latency.
			out[ix] = BatchResult{Err: out[idx[j]].Err}
		}
	}
}
