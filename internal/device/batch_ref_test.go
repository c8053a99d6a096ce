package device

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"soteria/internal/config"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

// refExecBatch is ExecBatch as it stood with per-shard copies of the ops
// and a map-indexed coalescing plan: each group holds shard-local copies,
// supersededBy maps a dropped write to its superseder, lastWrite maps a
// line to its open write, and an absorber is found by walking the chain.
// FuzzExecBatchMatchesReference holds ExecBatch to its results, counters
// and NVM images.
func refExecBatch(d *Device, ops []BatchOp, res []BatchResult) {
	type group struct {
		ops []BatchOp
		idx []int32
	}
	groups := make([]group, d.opts.Shards)
	var used []int
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
		sh := d.ShardOf(op.Addr)
		g := &groups[sh]
		if len(g.ops) == 0 {
			used = append(used, sh)
		}
		g.ops = append(g.ops, BatchOp{Op: op.Op, Addr: d.localAddr(op.Addr), Line: op.Line})
		g.idx = append(g.idx, int32(i))
	}
	epoch := d.epoch.Load()
	for _, sh := range used {
		refExecGroup(d.shards[sh], groups[sh].ops, groups[sh].idx, res, epoch)
	}
}

func refExecGroup(s *shard, ops []BatchOp, idx []int32, out []BatchResult, epoch uint64) {
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

	supersededBy, lastWrite := map[int]int{}, map[uint64]int{}
	for i := range ops {
		switch batchOpcode(ops[i].Op) {
		case opWrite:
			if j, ok := lastWrite[ops[i].Addr]; ok {
				supersededBy[j] = i
			}
			lastWrite[ops[i].Addr] = i
		case opRead:
			delete(lastWrite, ops[i].Addr)
		default:
			clear(lastWrite)
		}
	}
	for i := range ops {
		if _, dropped := supersededBy[i]; dropped {
			s.coalesced.Inc()
			continue
		}
		var r BatchResult
		s.exec(batchOpcode(ops[i].Op), ops[i].Addr, &ops[i].Line, epoch, &r)
		out[idx[i]] = r
	}
	for i := range ops {
		j, ok := supersededBy[i]
		if !ok {
			continue
		}
		for {
			k, again := supersededBy[j]
			if !again {
				break
			}
			j = k
		}
		out[idx[i]] = BatchResult{Err: out[idx[j]].Err}
	}
}

// FuzzExecBatchMatchesReference drives two identical four-shard devices
// through the same script of batches — one through ExecBatch, one through
// refExecBatch — and requires identical results, telemetry counters and
// NVM images. Ops come from a pool of 24 lines, so writes supersede one
// another across reads, drains and shard boundaries; unknown op codes and
// unaligned addresses are rejected inside batches; and a crash with
// recovery may fall between batches. Result slots start out poisoned, so a
// field ExecBatch fails to write shows.
func FuzzExecBatchMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 1, 0, 1})
	f.Add([]byte{0, 0, 1, 4, 2, 8, 3, 0, 5, 0, 0, 0, 6, 3, 7, 1, 0, 4, 1, 4, 4, 4})
	f.Add([]byte{0, 5, 1, 5, 7, 16, 2, 5, 3, 5, 6, 2, 1, 9, 5, 1, 0, 9, 7, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 1, 7, 2, 3, 3, 11, 5, 3, 0, 7}, 12))
	// One group of 84 ops on shard 0, then a smaller one after a crash.
	f.Add(append(bytes.Repeat([]byte{0, 4, 1, 8, 3, 4, 0, 12, 5, 0, 2, 16}, 14), 7, 0, 0, 4, 0, 4))
	f.Fuzz(func(t *testing.T, script []byte) {
		newDev := func() *Device {
			d, err := New(Options{
				System:    config.TestSystem(),
				Mode:      memctrl.ModeSRC,
				Key:       []byte("batch-ref-key"),
				Shards:    4,
				Telemetry: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { d.Close() })
			return d
		}
		d, ref := newDev(), newDev()

		var ops []BatchOp
		run := func(step int) {
			if len(ops) == 0 {
				return
			}
			got, want := make([]BatchResult, len(ops)), make([]BatchResult, len(ops))
			for i := range got {
				got[i] = BatchResult{Data: nvm.Line{0xAA}, Latency: -1, Err: fmt.Errorf("poison")}
				want[i] = got[i]
			}
			if err := d.ExecBatch(ops, got); err != nil {
				t.Fatal(err)
			}
			refExecBatch(ref, ops, want)
			for i := range got {
				if got[i].Data != want[i].Data || got[i].Latency != want[i].Latency ||
					fmt.Sprint(got[i].Err) != fmt.Sprint(want[i].Err) {
					t.Fatalf("step %d, op %d %+v: result %v/%v/%x, reference %v/%v/%x", step, i, ops[i],
						got[i].Latency, got[i].Err, got[i].Data[:8], want[i].Latency, want[i].Err, want[i].Data[:8])
				}
			}
			ops = ops[:0]
		}
		for i := 0; i+1 < len(script); i += 2 {
			k, arg := script[i]%8, script[i+1]
			addr := uint64(arg%24) * nvm.LineSize
			switch {
			case k < 3:
				var line nvm.Line
				line[0], line[1], line[2] = byte(i), byte(i>>8), arg
				ops = append(ops, BatchOp{Op: BatchWrite, Addr: addr, Line: line})
			case k < 5:
				ops = append(ops, BatchOp{Op: BatchRead, Addr: addr})
			case k == 5:
				ops = append(ops, BatchOp{Op: BatchDrain, Addr: addr})
			case k == 6 && arg&1 == 0:
				ops = append(ops, BatchOp{Op: BatchDrain + 1 + arg%4, Addr: addr})
			case k == 6:
				ops = append(ops, BatchOp{Op: BatchWrite, Addr: addr + 1})
			default:
				run(i)
				if arg%4 == 0 {
					for _, dv := range []*Device{d, ref} {
						if err := dv.Crash(); err != nil {
							t.Fatal(err)
						}
						if _, err := dv.Recover(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		}
		run(len(script))
		if a, b := ImageDigests(d), ImageDigests(ref); !reflect.DeepEqual(a, b) {
			t.Fatalf("NVM images %v, reference %v", a, b)
		}
		if a, b := d.Snapshot().Counters, ref.Snapshot().Counters; !reflect.DeepEqual(a, b) {
			t.Fatalf("counters %v, reference %v", a, b)
		}
	})
}
