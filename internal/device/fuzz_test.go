package device_test

import (
	"bytes"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

func fuzzDevice(t testing.TB) *device.Device {
	// A deliberately tiny device: the fuzzer rebuilds it on every exec, so
	// construction cost bounds throughput.
	sys := config.TestSystem()
	sys.NVM.CapacityBytes = 256 << 10
	dev, err := device.New(device.Options{
		System: sys,
		Mode:   memctrl.ModeSAC,
		Key:    []byte("fuzz-ckpt-key"),
		Shards: 2,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return dev
}

// FuzzCheckpointRestore mutates serialized device checkpoints: Restore
// must either reject the bytes with an error or accept them into a state
// that round-trips byte-for-byte — and must never panic. The seed corpus
// covers a pristine device, one with traffic, one crashed by a power loss
// mid-write, and structurally broken variants.
func FuzzCheckpointRestore(f *testing.F) {
	dev := fuzzDevice(f)
	pristine, err := dev.Checkpoint()
	if err != nil {
		f.Fatalf("pristine checkpoint: %v", err)
	}
	f.Add(pristine)

	var line nvm.Line
	for i := range line {
		line[i] = byte(i * 7)
	}
	for i := 0; i < 24; i++ {
		if _, err := dev.Write(uint64(i%12)*nvm.LineSize, &line); err != nil {
			f.Fatalf("seed write %d: %v", i, err)
		}
	}
	busy, err := dev.Checkpoint()
	if err != nil {
		f.Fatalf("busy checkpoint: %v", err)
	}
	f.Add(busy)

	// Power lost mid-write, then crashed: down, barrier advanced, a torn
	// write group in NVM and nothing recovered yet.
	cutPowerOnShard0(f, dev, 2)
	if err := dev.Crash(); err != nil {
		f.Fatalf("seed crash: %v", err)
	}
	crashed, err := dev.Checkpoint()
	if err != nil {
		f.Fatalf("crashed checkpoint: %v", err)
	}
	f.Add(crashed)

	f.Add(busy[:len(busy)/2])
	flipped := append([]byte(nil), busy...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("SOTC not actually a checkpoint"))

	f.Fuzz(func(t *testing.T, data []byte) {
		dev := fuzzDevice(t)
		defer dev.Close()
		if err := dev.Restore(data); err != nil {
			// Rejected — the only acceptable alternative to a clean
			// round-trip.
			return
		}
		// Accepted: the restored state must be checkpointable again and
		// byte-stable through a second restore.
		ckpt, err := dev.Checkpoint()
		if err != nil {
			t.Fatalf("Restore accepted %d bytes but re-checkpoint failed: %v", len(data), err)
		}
		dev2 := fuzzDevice(t)
		defer dev2.Close()
		if err := dev2.Restore(ckpt); err != nil {
			t.Fatalf("re-checkpoint of an accepted restore does not restore: %v", err)
		}
		ckpt2, err := dev2.Checkpoint()
		if err != nil {
			t.Fatalf("second re-checkpoint failed: %v", err)
		}
		if !bytes.Equal(ckpt, ckpt2) {
			t.Fatalf("accepted state is not byte-stable: %d vs %d bytes", len(ckpt), len(ckpt2))
		}
	})
}
