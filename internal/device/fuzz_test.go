package device_test

import (
	"bytes"
	"testing"

	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

func fuzzEngine(t testing.TB) *device.Engine {
	// A deliberately tiny device: the fuzzer rebuilds the engine on every
	// exec, so construction cost bounds throughput.
	sys := config.TestSystem()
	sys.NVM.CapacityBytes = 256 << 10
	eng, err := device.NewEngine(device.EngineOptions{
		Options: device.Options{
			System:     sys,
			Mode:       memctrl.ModeSAC,
			Key:        []byte("fuzz-ckpt-key"),
			Shards:     2,
			QueueDepth: 8,
		},
	})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// FuzzCheckpointRestore mutates serialized engine checkpoints: Restore
// must either reject the bytes with an error or accept them into a state
// that round-trips byte-for-byte — and must never panic. The seed corpus
// covers a pristine engine, one with traffic, one crashed by a power loss
// mid-write, and structurally broken variants.
func FuzzCheckpointRestore(f *testing.F) {
	eng := fuzzEngine(f)
	pristine, err := eng.Checkpoint()
	if err != nil {
		f.Fatalf("pristine checkpoint: %v", err)
	}
	f.Add(pristine)

	var line nvm.Line
	for i := range line {
		line[i] = byte(i * 7)
	}
	for i := 0; i < 24; i++ {
		if _, err := eng.Write(uint64(i%12)*nvm.LineSize, &line); err != nil {
			f.Fatalf("seed write %d: %v", i, err)
		}
	}
	busy, err := eng.Checkpoint()
	if err != nil {
		f.Fatalf("busy checkpoint: %v", err)
	}
	f.Add(busy)

	// Power lost mid-write, then crashed: down, barrier advanced, a torn
	// write group in NVM and nothing recovered yet.
	cutPowerOnShard0(f, eng, 2)
	if err := eng.Crash(); err != nil {
		f.Fatalf("seed crash: %v", err)
	}
	crashed, err := eng.Checkpoint()
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
		eng := fuzzEngine(t)
		defer eng.Close()
		if err := eng.Restore(data); err != nil {
			// Rejected — the only acceptable alternative to a clean
			// round-trip.
			return
		}
		// Accepted: the restored state must be checkpointable again and
		// byte-stable through a second restore.
		ckpt, err := eng.Checkpoint()
		if err != nil {
			t.Fatalf("Restore accepted %d bytes but re-checkpoint failed: %v", len(data), err)
		}
		eng2 := fuzzEngine(t)
		defer eng2.Close()
		if err := eng2.Restore(ckpt); err != nil {
			t.Fatalf("re-checkpoint of an accepted restore does not restore: %v", err)
		}
		ckpt2, err := eng2.Checkpoint()
		if err != nil {
			t.Fatalf("second re-checkpoint failed: %v", err)
		}
		if !bytes.Equal(ckpt, ckpt2) {
			t.Fatalf("accepted state is not byte-stable: %d vs %d bytes", len(ckpt), len(ckpt2))
		}
	})
}
