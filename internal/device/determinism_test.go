package device_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"soteria/internal/chaos"
	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

// cutPowerOnShard0 arms a power loss at the second write boundary and
// writes to shard 0 (line 0) until it fires.
func cutPowerOnShard0(t testing.TB, h *device.Device, shards int) {
	t.Helper()
	if err := h.SetShardHooks(chaos.NewInjector(2).ShardHooks(shards)); err != nil {
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

	inj := chaos.NewInjector(40)
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
// produces a byte-identical transcript, telemetry snapshot and NVM image on
// every shard.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	const shards = 8
	type run struct {
		transcript string
		telemetry  []byte
		images     []string
	}
	var runs [2]run
	for i := range runs {
		dev, err := device.New(device.Options{
			System:    config.TestSystem(),
			Mode:      memctrl.ModeSAC,
			Key:       []byte("engine-test-key"),
			Shards:    shards,
			Telemetry: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		transcript := driveWorkload(t, dev, shards)
		snap, err := dev.Snapshot().MarshalIndentJSON()
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run{transcript, snap, device.ImageDigests(dev)}
	}
	if runs[1].transcript != runs[0].transcript {
		t.Error("second run's transcript diverged")
	}
	if !bytes.Equal(runs[1].telemetry, runs[0].telemetry) {
		t.Errorf("telemetry snapshot diverged:\n%s\nvs\n%s", runs[1].telemetry, runs[0].telemetry)
	}
	if !slices.Equal(runs[1].images, runs[0].images) {
		t.Errorf("NVM images diverged:\n%v\nvs\n%v", runs[1].images, runs[0].images)
	}
}

// TestEngineScale1000Shards runs a 1024-shard device through a closed-loop
// workload, a run-twice determinism check and a read-back spot check — the
// "one machine simulates a thousand controllers" scale target.
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
	if !slices.Equal(device.ImageDigests(a), device.ImageDigests(b)) {
		t.Fatal("NVM images diverged across two identical 1024-shard runs")
	}
	for s := 0; s < shards; s += 97 {
		addr := uint64(s+shards) * nvm.LineSize
		got, _, err := a.Read(addr)
		if err != nil {
			t.Fatalf("read shard %d: %v", s, err)
		}
		if want := fill(addr, 1); got != want {
			t.Fatalf("shard %d returned wrong data", s)
		}
	}
}
