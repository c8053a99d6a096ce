package device_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"soteria/internal/chaos"
	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

func engineOpts(shards int, trace bool) device.EngineOptions {
	return device.EngineOptions{
		Options: device.Options{
			System:     config.TestSystem(),
			Mode:       memctrl.ModeSAC,
			Key:        []byte("engine-test-key"),
			Shards:     shards,
			QueueDepth: 16,
			Telemetry:  true,
		},
		Trace: trace,
	}
}

// TestEngineMatchesDeviceClosedLoop drives the identical closed-loop
// workload — including a mid-workload power loss and recovery — through
// the goroutine-backed Device and the synchronous Engine, asserting the
// two hosts implement the same device semantics: same data, same simulated
// latencies, same controller statistics, same typed rejections.
func TestEngineMatchesDeviceClosedLoop(t *testing.T) {
	const shards = 4
	opts := engineOpts(shards, false)

	dev, err := device.New(opts.Options)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	eng, err := device.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}

	injD := chaos.NewDeviceInjector(120)
	injE := chaos.NewDeviceInjector(120)
	if err := dev.SetShardHooks(injD.ShardHooks(shards)); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetShardHooks(injE.ShardHooks(shards)); err != nil {
		t.Fatal(err)
	}

	step := func(i int) (addr uint64) {
		return uint64((i*13)%256) * nvm.LineSize
	}
	var crashedAtD, crashedAtE = -1, -1
	for i := 0; i < 200; i++ {
		addr := step(i)
		var errD, errE error
		if i%4 == 3 {
			gotD, latD, e1 := dev.Read(addr)
			gotE, latE, e2 := eng.Read(addr)
			if (e1 == nil) != (e2 == nil) || gotD != gotE || latD != latE {
				t.Fatalf("op %d: read diverged: (%v,%v) vs (%v,%v)", i, latD, e1, latE, e2)
			}
			errD, errE = e1, e2
		} else {
			line := fill(addr, uint64(i))
			latD, e1 := dev.Write(addr, &line)
			latE, e2 := eng.Write(addr, &line)
			if (e1 == nil) != (e2 == nil) || latD != latE {
				t.Fatalf("op %d: write diverged: (%v,%v) vs (%v,%v)", i, latD, e1, latE, e2)
			}
			errD, errE = e1, e2
		}
		var pd, pe *device.PowerError
		if errors.As(errD, &pd) {
			crashedAtD = i
		}
		if errors.As(errE, &pe) {
			crashedAtE = i
		}
		if crashedAtD >= 0 || crashedAtE >= 0 {
			if pd == nil || pe == nil || pd.Shard != pe.Shard || pd.Boundary != pe.Boundary {
				t.Fatalf("op %d: power loss diverged: %v vs %v", i, errD, errE)
			}
			break
		}
	}
	if crashedAtD < 0 {
		t.Fatal("injected power loss never fired")
	}
	if err := dev.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	injD.Disarm()
	injE.Disarm()
	repD, err := dev.Recover()
	if err != nil {
		t.Fatal(err)
	}
	repE, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if repD.TrackedEntries() != repE.TrackedEntries() || repD.RecoveredBlocks() != repE.RecoveredBlocks() ||
		repD.FailedBlocks() != repE.FailedBlocks() || repD.LostSlots() != repE.LostSlots() {
		t.Fatalf("recovery diverged: device tracked=%d recovered=%d, engine tracked=%d recovered=%d",
			repD.TrackedEntries(), repD.RecoveredBlocks(), repE.TrackedEntries(), repE.RecoveredBlocks())
	}
	for i := 0; i < 200; i += 7 {
		addr := step(i)
		gotD, latD, e1 := dev.Read(addr)
		gotE, latE, e2 := eng.Read(addr)
		if (e1 == nil) != (e2 == nil) || gotD != gotE || latD != latE {
			t.Fatalf("post-recovery read %#x diverged", addr)
		}
	}
	if dev.Stats() != eng.Stats() {
		t.Fatalf("stats diverged:\ndevice: %+v\nengine: %+v", dev.Stats(), eng.Stats())
	}

	// Both hosts refuse a data operation with the same typed error in
	// every state that refuses one.
	capacity := opts.System.NVM.CapacityBytes
	rejections := []struct {
		name  string
		setup func(t *testing.T, h deviceHost)
		addr  uint64
		want  error // nil: an address error, compared by text
	}{
		{name: "closed", addr: 0, want: device.ErrClosed,
			setup: func(t *testing.T, h deviceHost) { h.Close() }},
		{name: "down", addr: 0, want: memctrl.ErrCrashed,
			setup: func(t *testing.T, h deviceHost) {
				if err := h.Crash(); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "unaligned", addr: 7},
		{name: "out-of-range", addr: capacity},
		{name: "other shard after power cut", addr: nvm.LineSize, want: memctrl.ErrCrashed,
			setup: func(t *testing.T, h deviceHost) { cutPowerOnShard0(t, h, shards) }},
	}
	for _, tc := range rejections {
		t.Run("rejects/"+tc.name, func(t *testing.T) {
			dev, err := device.New(opts.Options)
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			eng, err := device.NewEngine(opts)
			if err != nil {
				t.Fatal(err)
			}
			var errs [2][3]error
			for i, h := range []deviceHost{dev, eng} {
				if tc.setup != nil {
					tc.setup(t, h)
				}
				line := fill(tc.addr, 1)
				_, _, errs[i][0] = h.Read(tc.addr)
				_, errs[i][1] = h.Write(tc.addr, &line)
				errs[i][2] = h.Drain(tc.addr)
			}
			for op, name := range []string{"Read", "Write", "Drain"} {
				errD, errE := errs[0][op], errs[1][op]
				if errD == nil || errE == nil {
					t.Fatalf("%s accepted: device %v, engine %v", name, errD, errE)
				}
				if tc.want != nil && !(errors.Is(errD, tc.want) && errors.Is(errE, tc.want)) {
					t.Errorf("%s: device %v, engine %v, want both %v", name, errD, errE, tc.want)
				}
				if errD.Error() != errE.Error() {
					t.Errorf("%s rejections differ: device %q, engine %q", name, errD, errE)
				}
			}
		})
	}
}

// deviceHost is what the rejection cases need from either host.
type deviceHost interface {
	device.Client
	SetShardHooks([]inject.Hook) error
}

// cutPowerOnShard0 arms a power loss at the second write boundary and
// writes to shard 0 (line 0) until it fires.
func cutPowerOnShard0(t testing.TB, h deviceHost, shards int) {
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

// driveEngineWorkload runs a deterministic closed-loop workload: mixed
// reads and writes, a power loss targeted at shard 1's own 40th boundary,
// crash, recover, a second phase, and a final flush. Returns a transcript
// of everything observable.
func driveEngineWorkload(t *testing.T, eng *device.Engine, shards int) string {
	t.Helper()
	var log bytes.Buffer

	inj := chaos.NewDeviceInjector(40)
	hooks := inj.ShardHooks(shards)
	for i := range hooks {
		if i != 1 {
			hooks[i] = nil
		}
	}
	if err := eng.SetShardHooks(hooks); err != nil {
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
				data, lat, err = eng.Read(addr)
			} else {
				line := fill(addr, uint64(i))
				lat, err = eng.Write(addr, &line)
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

	if !phase(0, 480) || !eng.Down() {
		t.Fatal("injected power loss never fired")
	}
	if err := eng.Crash(); err != nil {
		t.Fatal(err)
	}
	inj.Disarm()
	rep, err := eng.Recover()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "recovered tracked=%d recovered=%d failed=%d lost=%d\n",
		rep.TrackedEntries(), rep.RecoveredBlocks(), rep.FailedBlocks(), rep.LostSlots())

	phase(1000, 160)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&log, "stats %+v\n", eng.Stats())
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
		eng, err := device.NewEngine(engineOpts(shards, true))
		if err != nil {
			t.Fatal(err)
		}
		transcript := driveEngineWorkload(t, eng, shards)
		snap, err := eng.Snapshot().MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		ckpt, err := eng.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run{transcript, snap, device.EncodeTrace(eng.Trace()), ckpt}
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

// restoredCopy checkpoints a, restores the bytes into the fresh engine b
// and asserts b re-checkpoints byte-identically.
func restoredCopy(t *testing.T, a, b *device.Engine) *device.Engine {
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

// sameCheckpoint asserts two engines hold byte-identical state.
func sameCheckpoint(t *testing.T, a, b *device.Engine, when string) {
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
		t.Fatalf("engines diverged %s", when)
	}
}

// TestEngineCheckpointRestoreRoundTrip checkpoints an engine mid-workload
// and again while it is down after a power loss mid-write, and asserts each restored
// engine is byte-identical and behaviorally indistinguishable.
func TestEngineCheckpointRestoreRoundTrip(t *testing.T) {
	const shards = 4
	fresh := func() *device.Engine {
		eng, err := device.NewEngine(engineOpts(shards, false))
		if err != nil {
			t.Fatal(err)
		}
		return eng
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
		t.Fatal("restored engine lost the down bit")
	}
	if _, _, err := c.Read(0); !errors.Is(err, memctrl.ErrCrashed) {
		t.Fatalf("read on a restored down engine: %v", err)
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

// TestEngineRestoreRejectsMismatch covers the identity and integrity gates.
func TestEngineRestoreRejectsMismatch(t *testing.T) {
	a, err := device.NewEngine(engineOpts(4, false))
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

	other, err := device.NewEngine(engineOpts(8, false))
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
	// queue state this engine no longer has) is refused by version.
	payload, err := sim.Open(sim.SnapKindEngine, 2, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Restore(sim.Seal(sim.SnapKindEngine, 1, payload)); err == nil {
		t.Fatal("v1 envelope accepted")
	}
	// The engine must still work after rejecting garbage.
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
	mk := func() *device.Engine {
		eng, err := device.NewEngine(device.EngineOptions{
			Options: device.Options{
				System: sys,
				Mode:   memctrl.ModeSAC,
				Key:    []byte("engine-scale-key"),
				Shards: shards,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	drive := func(eng *device.Engine) {
		for round := 0; round < 2; round++ {
			for s := 0; s < shards; s++ {
				addr := uint64(s+round*shards) * nvm.LineSize
				line := fill(addr, uint64(round))
				if _, err := eng.Write(addr, &line); err != nil {
					t.Fatalf("shard %d round %d: %v", s, round, err)
				}
			}
		}
	}

	a, b := mk(), mk()
	drive(a)
	drive(b)
	sameCheckpoint(t, a, b, "across two identical 1024-shard runs")

	// Restore the full 1024-shard state into a third engine and spot-check.
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
