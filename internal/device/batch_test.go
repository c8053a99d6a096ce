package device_test

import (
	"errors"
	"testing"

	"soteria/internal/device"
	"soteria/internal/memctrl"
)

func TestDeviceExecBatchRoundTrip(t *testing.T) {
	d := newTestDevice(t, nil)

	// Writes across all shards, plus an in-batch read-your-write.
	const n = 64
	ops := make([]device.BatchOp, 0, n+1)
	for i := uint64(0); i < n; i++ {
		ops = append(ops, device.BatchOp{Op: device.BatchWrite, Addr: i * 64, Line: fill(i*64, 1)})
	}
	ops = append(ops, device.BatchOp{Op: device.BatchRead, Addr: 0})
	res := make([]device.BatchResult, len(ops))
	if err := d.ExecBatch(ops, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if got, want := res[n].Data, fill(0, 1); got != want {
		t.Fatal("in-batch read after write returned stale data")
	}

	// Read everything back in one batch, interleaved with drains.
	ops = ops[:0]
	for i := uint64(0); i < n; i++ {
		ops = append(ops, device.BatchOp{Op: device.BatchRead, Addr: i * 64})
		if i%8 == 0 {
			ops = append(ops, device.BatchOp{Op: device.BatchDrain, Addr: i * 64})
		}
	}
	res = make([]device.BatchResult, len(ops))
	if err := d.ExecBatch(ops, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
		if ops[i].Op == device.BatchRead {
			if r.Data != fill(ops[i].Addr, 1) {
				t.Fatalf("read %d returned wrong data", i)
			}
			if r.Latency <= 0 {
				t.Fatalf("read %d has latency %v", i, r.Latency)
			}
		}
	}
}

func TestDeviceExecBatchCoalescesSupersededWrites(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) { o.Telemetry = true })

	// Three writes to the same line with no intervening read: the first
	// two are superseded and must be acknowledged without executing.
	ops := []device.BatchOp{
		{Op: device.BatchWrite, Addr: 320, Line: fill(320, 1)},
		{Op: device.BatchWrite, Addr: 320, Line: fill(320, 2)},
		{Op: device.BatchWrite, Addr: 320, Line: fill(320, 3)},
		{Op: device.BatchRead, Addr: 320},
		// After a read of the line, a new write must NOT be coalesced
		// backwards across it.
		{Op: device.BatchWrite, Addr: 320, Line: fill(320, 4)},
	}
	res := make([]device.BatchResult, len(ops))
	if err := d.ExecBatch(ops, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if res[3].Data != fill(320, 3) {
		t.Fatal("read did not observe the last pre-read write")
	}
	if res[0].Latency != 0 || res[1].Latency != 0 {
		t.Fatal("superseded writes should report zero added latency")
	}
	line, _, err := d.Read(320)
	if err != nil {
		t.Fatal(err)
	}
	if line != fill(320, 4) {
		t.Fatal("final line content wrong after coalesced batch")
	}
}

func TestDeviceExecBatchValidation(t *testing.T) {
	d := newTestDevice(t, nil)

	if err := d.ExecBatch(make([]device.BatchOp, 2), make([]device.BatchResult, 1)); err == nil {
		t.Fatal("length mismatch not rejected")
	}

	ops := []device.BatchOp{
		{Op: 99, Addr: 0},
		{Op: device.BatchRead, Addr: 1 << 60},
		{Op: device.BatchWrite, Addr: 192, Line: fill(192, 1)},
	}
	res := make([]device.BatchResult, len(ops))
	if err := d.ExecBatch(ops, res); err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil || res[1].Err == nil {
		t.Fatal("invalid ops not rejected per-op")
	}
	if res[2].Err != nil {
		t.Fatalf("valid op rejected alongside invalid ones: %v", res[2].Err)
	}
}

func TestDeviceExecBatchAfterCrash(t *testing.T) {
	d := newTestDevice(t, nil)
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	ops := []device.BatchOp{
		{Op: device.BatchWrite, Addr: 64, Line: fill(64, 1)},
		{Op: device.BatchRead, Addr: 64},
	}
	res := make([]device.BatchResult, len(ops))
	if err := d.ExecBatch(ops, res); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !errors.Is(r.Err, memctrl.ErrCrashed) {
			t.Fatalf("op %d after crash: got %v, want ErrCrashed", i, r.Err)
		}
	}
}

// TestDeviceExecBatchAllocs pins the zero-allocation contract of the
// steady-state batched execution path (ISSUE 10): once warm, pushing a
// mixed batch through the device allocates nothing per op.
func TestDeviceExecBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	d := newTestDevice(t, nil)

	const n = 32
	ops := make([]device.BatchOp, n)
	for i := range ops {
		addr := uint64(i) * 64
		if i%4 == 3 {
			ops[i] = device.BatchOp{Op: device.BatchRead, Addr: addr}
		} else {
			ops[i] = device.BatchOp{Op: device.BatchWrite, Addr: addr, Line: fill(addr, 7)}
		}
	}
	res := make([]device.BatchResult, n)
	// Warm: pool the batchRun, grow shard scratch, fault in metadata
	// cache lines and lazily-populated NVM backing lines.
	for i := 0; i < 16; i++ {
		if err := d.ExecBatch(ops, res); err != nil {
			t.Fatal(err)
		}
	}
	// The batching machinery itself is allocation-free; the only residual
	// is the NVM backing store lazily populating cold lines on cache
	// writeback, which amortizes to zero over the working set. Pin the
	// per-op figure well under one allocation.
	allocs := testing.AllocsPerRun(20, func() {
		if err := d.ExecBatch(ops, res); err != nil {
			t.Fatal(err)
		}
	})
	if perOp := allocs / n; perOp >= 0.25 {
		t.Fatalf("ExecBatch allocates %.2f per batch (%.3f per op), want ~0", allocs, perOp)
	}
}

// TestDeviceExecBatchCountedOnce pins the batch accounting: one wire group
// is one device_batches_total increment and one device_batch_size sample
// of the group's size — not a second "batch of 1" for the queue entry that
// carried it.
func TestDeviceExecBatchCountedOnce(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) { o.Shards = 1; o.Telemetry = true })

	const n = 8
	ops := make([]device.BatchOp, n)
	for i := range ops {
		addr := uint64(i) * 64
		ops[i] = device.BatchOp{Op: device.BatchWrite, Addr: addr, Line: fill(addr, 1)}
	}
	before := d.Snapshot()
	if err := d.ExecBatch(ops, make([]device.BatchResult, n)); err != nil {
		t.Fatal(err)
	}
	after := d.Snapshot()
	if got := after.Counters["device_batches_total"] - before.Counters["device_batches_total"]; got != 1 {
		t.Fatalf("one ExecBatch moved device_batches_total by %d, want 1", got)
	}
	hb, ha := before.Histograms["device_batch_size"], after.Histograms["device_batch_size"]
	if ha.Count-hb.Count != 1 || ha.Sum-hb.Sum != n {
		t.Fatalf("one ExecBatch of %d ops added %d device_batch_size samples summing to %d, want 1 sample of %d",
			n, ha.Count-hb.Count, ha.Sum-hb.Sum, n)
	}
}
