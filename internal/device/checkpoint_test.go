package device_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"soteria/internal/chaos"
	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

func testOpts(shards int, trace bool) device.Options {
	return device.Options{
		System:    config.TestSystem(),
		Mode:      memctrl.ModeSAC,
		Key:       []byte("engine-test-key"),
		Shards:    shards,
		Telemetry: true,
		Trace:     trace,
	}
}

// cutPowerOnShard0 arms a power loss at the second write boundary and
// writes to shard 0 (line 0) until it fires.
func cutPowerOnShard0(t testing.TB, h *device.Device, shards int) {
	t.Helper()
	if err := h.SetShardHooks(chaos.NewDeviceInjector(2).ShardHooks(shards)); err != nil {
		t.Fatal(err)
	}
	line := fill(0, 1)
	for i := 0; i < 100; i++ {
		if _, err := h.Write(0, &line); errors.Is(err, device.ErrPowerLoss) {
			return
		} else if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	t.Fatal("injected power loss never fired")
}

// driveWorkload runs a deterministic closed-loop workload: mixed
// reads and writes, a power loss targeted at shard 1's own 40th boundary,
// crash, recover, a second phase, and a final flush. Returns a transcript
// of everything observable.
func driveWorkload(t *testing.T, dev *device.Device, shards int) string {
	t.Helper()
	var log bytes.Buffer

	inj := chaos.NewDeviceInjector(40)
	hooks := inj.ShardHooks(shards)
	for i := range hooks {
		if i != 1 {
			hooks[i] = nil
		}
	}
	if err := dev.SetShardHooks(hooks); err != nil {
		t.Fatal(err)
	}

	// phase runs n ops from base and reports whether power was lost.
	phase := func(base, n int) bool {
		for i := base; i < base+n; i++ {
			addr := uint64((i*7)%(shards*64)) * nvm.LineSize
			var (
				data nvm.Line
				lat  sim.Time
				err  error
			)
			if i%5 == 4 {
				data, lat, err = dev.Read(addr)
			} else {
				line := fill(addr, uint64(i))
				lat, err = dev.Write(addr, &line)
			}
			fmt.Fprintf(&log, "op %d lat %d err %v data %x\n", i, lat, err, data[:8])
			if errors.Is(err, device.ErrPowerLoss) {
				return true
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		return false
	}

	if !phase(0, 480) || !dev.Down() {
		t.Fatal("injected power loss never fired")
	}
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	inj.Disarm()
	rep, err := dev.Recover()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "recovered tracked=%d recovered=%d failed=%d lost=%d\n",
		rep.TrackedEntries(), rep.RecoveredBlocks(), rep.FailedBlocks(), rep.LostSlots())

	phase(1000, 160)
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "stats %+v\n", dev.Stats())
	return log.String()
}

// TestEngineDeterministicAcrossWorkers is the determinism contract: the
// same workload run twice — through a targeted power loss and recovery —
// produces a byte-identical transcript, telemetry snapshot, event trace
// and final checkpoint.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	const shards = 8
	type run struct {
		transcript string
		telemetry  []byte
		trace      []byte
		ckpt       []byte
	}
	var runs [2]run
	for i := range runs {
		dev, err := device.New(testOpts(shards, true))
		if err != nil {
			t.Fatal(err)
		}
		transcript := driveWorkload(t, dev, shards)
		snap, err := dev.Snapshot().MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := dev.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run{transcript, snap, device.EncodeTrace(dev.Trace()), ckpt}
	}
	if len(runs[0].trace) <= 4 {
		t.Fatal("traced run recorded no events")
	}
	if runs[1].transcript != runs[0].transcript {
		t.Error("second run's transcript diverged")
	}
	if !bytes.Equal(runs[1].telemetry, runs[0].telemetry) {
		t.Errorf("telemetry snapshot diverged:\n%s\nvs\n%s", runs[1].telemetry, runs[0].telemetry)
	}
	if !bytes.Equal(runs[1].trace, runs[0].trace) {
		t.Error("event trace diverged")
	}
	if !bytes.Equal(runs[1].ckpt, runs[0].ckpt) {
		t.Error("final checkpoint diverged")
	}
}

// restoredCopy checkpoints a, restores the bytes into the fresh device b
// and asserts b re-checkpoints byte-identically.
func restoredCopy(t *testing.T, a, b *device.Device) *device.Device {
	t.Helper()
	ckpt, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	ckpt2, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt, ckpt2) {
		t.Fatalf("restore is not byte-identical: %d vs %d bytes", len(ckpt), len(ckpt2))
	}
	return b
}

// sameCheckpoint asserts two devices hold byte-identical state.
func sameCheckpoint(t *testing.T, a, b *device.Device, when string) {
	t.Helper()
	ca, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("devices diverged %s", when)
	}
}

// TestEngineCheckpointRestoreRoundTrip checkpoints a device mid-workload
// and again while it is down after a power loss mid-write, and asserts each
// restored device is byte-identical and behaviorally indistinguishable.
func TestEngineCheckpointRestoreRoundTrip(t *testing.T) {
	const shards = 4
	fresh := func() *device.Device {
		dev, err := device.New(testOpts(shards, false))
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	a := fresh()
	step := func(i int) uint64 { return uint64((i*11)%(shards*32)) * nvm.LineSize }
	for i := 0; i < 120; i++ {
		line := fill(step(i), uint64(i))
		if _, err := a.Write(step(i), &line); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}

	// Mid-workload: dirty metadata cached, WPQ occupied.
	b := restoredCopy(t, a, fresh())
	for i := 120; i < 160; i++ {
		if i%2 == 0 {
			line := fill(step(i), uint64(i))
			la, e1 := a.Write(step(i), &line)
			lb, e2 := b.Write(step(i), &line)
			if e1 != nil || e2 != nil || la != lb {
				t.Fatalf("write %d diverged: (%v,%v) vs (%v,%v)", i, la, e1, lb, e2)
			}
			continue
		}
		da, la, e1 := a.Read(step(i))
		db, lb, e2 := b.Read(step(i))
		if e1 != nil || e2 != nil || da != db || la != lb {
			t.Fatalf("read %#x diverged", step(i))
		}
	}
	sameCheckpoint(t, a, b, "after continued execution")

	// Crashed: power lost mid-write, the device down and not yet recovered.
	cutPowerOnShard0(t, a, shards)
	if err := a.SetShardHooks(make([]inject.Hook, shards)); err != nil {
		t.Fatal(err)
	}
	if err := a.Crash(); err != nil {
		t.Fatal(err)
	}
	c := restoredCopy(t, a, fresh())
	if !c.Down() {
		t.Fatal("restored device lost the down bit")
	}
	if _, _, err := c.Read(0); !errors.Is(err, memctrl.ErrCrashed) {
		t.Fatalf("read on a restored down device: %v", err)
	}
	repA, err := a.Recover()
	if err != nil {
		t.Fatal(err)
	}
	repC, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if repA.TrackedEntries() != repC.TrackedEntries() || repA.RecoveredBlocks() != repC.RecoveredBlocks() {
		t.Fatalf("recovery diverged: tracked %d vs %d, recovered %d vs %d",
			repA.TrackedEntries(), repC.TrackedEntries(), repA.RecoveredBlocks(), repC.RecoveredBlocks())
	}
	for i := 0; i < 160; i += 3 {
		da, la, e1 := a.Read(step(i))
		dc, lc, e2 := c.Read(step(i))
		if e1 != nil || e2 != nil || da != dc || la != lc {
			t.Fatalf("post-recovery read %#x diverged", step(i))
		}
	}
	sameCheckpoint(t, a, c, "after recovery")
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointUnderConcurrentLoad takes a checkpoint while four writers
// run. The cut must be consistent: restored onto a fresh device, every
// line holds a version its writer had been acked for by the time Checkpoint
// was called, or issued by the time it returned, and the image verifies.
func TestCheckpointUnderConcurrentLoad(t *testing.T) {
	const (
		shards  = 4
		writers = 4
		lines   = 8 // per writer; consecutive lines, so each writer spans every shard
	)
	a, err := device.New(testOpts(shards, false))
	if err != nil {
		t.Fatal(err)
	}
	// Writer w's n-th write puts version n on its line n%lines. issued is
	// stored before the write is submitted, acked after it returned.
	addrOf := func(w, k int) uint64 { return uint64(w*lines+k) * nvm.LineSize }
	var issued, acked [writers]atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		issued[w].Store(-1)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				addr := addrOf(w, n%lines)
				line := fill(addr, uint64(n))
				issued[w].Store(int64(n))
				if _, err := a.Write(addr, &line); err != nil {
					t.Errorf("writer %d write %d: %v", w, n, err)
					return
				}
				acked[w].Store(int64(n + 1))
			}
		}(w)
	}
	// Let every writer lap its lines before cutting.
	for w := 0; w < writers; w++ {
		for acked[w].Load() < 4*lines && !t.Failed() {
			runtime.Gosched()
		}
	}
	var lo, hi [writers]int64
	for w := range lo {
		lo[w] = acked[w].Load()
	}
	ckpt, err := a.Checkpoint()
	for w := range hi {
		hi[w] = issued[w].Load()
	}
	stop.Store(true)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}

	b, err := device.New(testOpts(shards, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < lines; k++ {
			addr := addrOf(w, k)
			got, _, err := b.Read(addr)
			if err != nil {
				t.Fatalf("writer %d line %d: %v", w, k, err)
			}
			// Oldest admissible version: the last write to this line
			// acked before the cut. Newest: the last one issued by its end.
			oldest := (lo[w]-1-int64(k))/lines*lines + int64(k)
			found := false
			for n := oldest; n <= hi[w]; n += lines {
				if got == fill(addr, uint64(n)) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("writer %d line %d: restored content is none of versions %d..%d (step %d)",
					w, k, oldest, hi[w], lines)
			}
		}
	}
	for _, d := range []*device.Device{a, b} {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := d.VerifyAll(); err != nil {
			t.Fatalf("image fails verification: %v", err)
		}
	}
}

// TestEngineRestoreRejectsMismatch covers the identity and integrity gates.
func TestEngineRestoreRejectsMismatch(t *testing.T) {
	a, err := device.New(testOpts(4, false))
	if err != nil {
		t.Fatal(err)
	}
	line := fill(0, 1)
	if _, err := a.Write(0, &line); err != nil {
		t.Fatal(err)
	}
	ckpt, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	other, err := device.New(testOpts(8, false))
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(ckpt); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	if err := a.Restore(ckpt[:len(ckpt)-2]); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0x40
	if err := a.Restore(flipped); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
	// A well-formed envelope of the previous layout version (which carried
	// queue state the device no longer has) is refused by version.
	payload, err := sim.Open(sim.SnapKindEngine, 2, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(sim.Seal(sim.SnapKindEngine, 1, payload)); err == nil {
		t.Fatal("v1 envelope accepted")
	}
	// The device must still work after rejecting garbage.
	if err := a.Restore(ckpt); err != nil {
		t.Fatalf("valid checkpoint rejected after garbage: %v", err)
	}
	if _, _, err := a.Read(0); err != nil {
		t.Fatal(err)
	}
}

// TestEngineScale1000Shards runs a 1024-shard device through a closed-loop
// workload, a run-twice determinism check and a checkpoint/restore
// round-trip — the "one machine simulates a thousand controllers" scale
// target.
func TestEngineScale1000Shards(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-shard scale test skipped in -short")
	}
	const shards = 1024
	sys := config.TestSystem()
	sys.NVM.CapacityBytes = 4 << 20 << 6 // 256 MB device, 256 KB per shard
	sys.Security.MetadataCache = config.CacheConfig{SizeBytes: 1 << 10, Ways: 2, LatencyCycles: 3}
	mk := func() *device.Device {
		dev, err := device.New(device.Options{
			System: sys,
			Mode:   memctrl.ModeSAC,
			Key:    []byte("engine-scale-key"),
			Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	drive := func(dev *device.Device) {
		for round := 0; round < 2; round++ {
			for s := 0; s < shards; s++ {
				addr := uint64(s+round*shards) * nvm.LineSize
				line := fill(addr, uint64(round))
				if _, err := dev.Write(addr, &line); err != nil {
					t.Fatalf("shard %d round %d: %v", s, round, err)
				}
			}
		}
	}

	a, b := mk(), mk()
	drive(a)
	drive(b)
	sameCheckpoint(t, a, b, "across two identical 1024-shard runs")

	// Restore the full 1024-shard state into a third device and spot-check.
	c := restoredCopy(t, a, mk())
	for s := 0; s < shards; s += 97 {
		addr := uint64(s+shards) * nvm.LineSize
		got, _, err := c.Read(addr)
		if err != nil {
			t.Fatalf("restored read shard %d: %v", s, err)
		}
		if want := fill(addr, 1); got != want {
			t.Fatalf("restored shard %d returned wrong data", s)
		}
	}
}
