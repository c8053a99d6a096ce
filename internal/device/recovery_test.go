package device_test

import (
	"errors"
	"sync"
	"testing"

	"soteria/internal/chaos"
	"soteria/internal/config"
	"soteria/internal/device"
	"soteria/internal/inject"
	"soteria/internal/memctrl"
	"soteria/internal/nvm"
)

// TestCrashMidBatchPerShard is the concurrent crash sweep: four writers
// contend for every shard's lock, a chaos injector cuts power at boundary
// k of one targeted shard, and after Crash/Recover the test asserts (a)
// every shard's recovery report is present and — crash-only, no device
// faults — clean, and (b) every write that was acknowledged before the cut
// reads back exactly.
func TestCrashMidBatchPerShard(t *testing.T) {
	const (
		shards       = 4
		writers      = 4
		opsPerWriter = 40
	)
	for targetShard := 0; targetShard < shards; targetShard++ {
		for _, crashAt := range []int{0, 3, 8} {
			t.Run("", func(t *testing.T) {
				d, err := device.New(device.Options{
					System: config.TestSystem(),
					Mode:   memctrl.ModeSRC,
					Key:    []byte("recovery-test-key"),
					Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()

				// Crash only when the *target* shard crosses its
				// crashAt-th boundary: keep its hook, detach the rest.
				inj := chaos.NewInjector(crashAt)
				hooks := inj.ShardHooks(shards)
				for i := range hooks {
					if i != targetShard {
						hooks[i] = nil
					}
				}
				if err := d.SetShardHooks(hooks); err != nil {
					t.Fatal(err)
				}

				// Each writer owns a contiguous run of global lines, so
				// its stream cycles through every shard and every shard
				// sees concurrent traffic from all writers.
				type ack struct {
					addr uint64
					line nvm.Line
				}
				acked := make([][]ack, writers)
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for j := 0; j < opsPerWriter; j++ {
							addr := uint64(w*opsPerWriter+j) * nvm.LineSize
							line := fill(addr, uint64(w)<<32|uint64(j))
							_, err := d.Write(addr, &line)
							if err == nil {
								acked[w] = append(acked[w], ack{addr, line})
								continue
							}
							// Power is gone (directly, or observed as
							// crashed/retired): stop this writer.
							if !errors.Is(err, device.ErrPowerLoss) &&
								!errors.Is(err, memctrl.ErrCrashed) &&
								!errors.Is(err, device.ErrRetired) {
								t.Errorf("writer %d op %d: %v", w, j, err)
							}
							return
						}
					}(w)
				}
				wg.Wait()

				fired, firedShard := inj.Fired()
				if !fired {
					t.Fatalf("crash at boundary %d of shard %d never fired", crashAt, targetShard)
				}
				if firedShard != targetShard {
					t.Fatalf("crash fired on shard %d, targeted %d", firedShard, targetShard)
				}
				inj.Disarm()

				if err := d.Crash(); err != nil {
					t.Fatalf("crash: %v", err)
				}
				rep, err := d.Recover()
				if err != nil {
					t.Fatalf("recover: %v", err)
				}
				if len(rep.Shards) != shards {
					t.Fatalf("recovery report covers %d of %d shards", len(rep.Shards), shards)
				}
				for sid, sr := range rep.Shards {
					if sr == nil {
						t.Fatalf("shard %d: recovery report missing", sid)
					}
					// No device faults were injected, so a lossy report
					// would be a recovery bug, not bad luck: it must be
					// clean (and if it ever is not, the report must say
					// which blocks failed rather than silently dropping
					// them — an empty FailedBlocks with losses would be
					// caught by the read-back below).
					if len(sr.FailedBlocks) > 0 || len(sr.LostSlots) > 0 {
						t.Errorf("shard %d: crash-only recovery lost data: %d failed blocks %v, lost slots %v",
							sid, len(sr.FailedBlocks), sr.FailedBlocks, sr.LostSlots)
					}
				}
				if !rep.Clean() {
					t.Errorf("device report not clean: %d failed, %d lost slots", rep.FailedBlocks(), rep.LostSlots())
				}

				// Every acknowledged write is durable by contract.
				n := 0
				for w := range acked {
					for _, a := range acked[w] {
						got, _, err := d.Read(a.addr)
						if err != nil {
							t.Fatalf("read back %#x: %v", a.addr, err)
						}
						if got != a.line {
							t.Errorf("acked write at %#x did not survive the crash", a.addr)
						}
						n++
					}
				}
				// A boundary-0 crash can legitimately beat every ack;
				// deeper crash points must have durable writes to check.
				if n == 0 && crashAt >= 8 {
					t.Error("no writes were acknowledged before the crash; sweep point is vacuous")
				}
				if err := d.VerifyAll(); err != nil {
					t.Errorf("post-recovery verify: %v", err)
				}
			})
		}
	}
}

// TestPowerLossTypedError pins the error surface of an injected power
// loss: the interrupted submission gets a *PowerError naming the shard
// and boundary, later submissions see ErrCrashed, and Recover restores
// service.
func TestPowerLossTypedError(t *testing.T) {
	d := newTestDevice(t, func(o *device.Options) { o.Shards = 2 })
	inj := chaos.NewInjector(2)
	if err := d.SetShardHooks(inj.ShardHooks(2)); err != nil {
		t.Fatal(err)
	}
	var perr *device.PowerError
	for i := 0; ; i++ {
		if i > 100 {
			t.Fatal("power loss never fired")
		}
		addr := uint64(i) * nvm.LineSize
		line := fill(addr, 5)
		_, err := d.Write(addr, &line)
		if err == nil {
			continue
		}
		if !errors.As(err, &perr) {
			t.Fatalf("want *PowerError, got %v", err)
		}
		break
	}
	if !errors.Is(perr, device.ErrPowerLoss) {
		t.Fatal("PowerError does not match ErrPowerLoss sentinel")
	}
	if perr.Boundary != 2 {
		t.Fatalf("power loss at boundary %d, armed 2", perr.Boundary)
	}
	line := fill(0, 5)
	if _, err := d.Write(0, &line); !errors.Is(err, memctrl.ErrCrashed) {
		t.Fatalf("write after power loss: %v", err)
	}
	inj.Disarm()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(0, &line); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestNestedCrashDuringRecoverDeterministic: with hooks installed Recover
// visits the shards in shard order on the caller's goroutine, so a power
// loss armed at a device-wide boundary inside recovery fires at the same
// boundary, on the same shard, every run — and a second Crash/Recover
// then brings every acknowledged write back.
func TestNestedCrashDuringRecoverDeterministic(t *testing.T) {
	const (
		shards = 8
		writes = 96
	)
	// run drives the workload, crashes, and recovers with power armed to
	// fail at device-wide boundary crashAt (negative: never). It returns
	// the boundary counts before and after the first Recover.
	run := func(crashAt int) (before, after int, perr *device.PowerError) {
		d := newTestDevice(t, func(o *device.Options) { o.Shards = shards })
		inj := chaos.NewInjector(crashAt)
		if err := d.SetShardHooks(inj.ShardHooks(shards)); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < writes; i++ {
			line := fill(i*nvm.LineSize, 11)
			if _, err := d.Write(i*nvm.LineSize, &line); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
		before = inj.Boundaries()
		_, err := d.Recover()
		after = inj.Boundaries()
		if crashAt < 0 {
			if err != nil {
				t.Fatalf("unarmed recover: %v", err)
			}
			return before, after, nil
		}
		if !errors.As(err, &perr) {
			t.Fatalf("recover armed at boundary %d: %v, want *PowerError", crashAt, err)
		}
		if fired, shard := inj.Fired(); !fired || shard != perr.Shard {
			t.Fatalf("injector fired=%t on shard %d, error names shard %d", fired, shard, perr.Shard)
		}
		if !d.Down() {
			t.Fatal("device came up after a recovery cut by power loss")
		}
		inj.Disarm()
		if err := d.Crash(); err != nil {
			t.Fatal(err)
		}
		rep, err := d.Recover()
		if err != nil || !rep.Clean() {
			t.Fatalf("second recover: %v (clean=%t)", err, err == nil && rep.Clean())
		}
		for i := uint64(0); i < writes; i++ {
			got, _, err := d.Read(i * nvm.LineSize)
			if err != nil || got != fill(i*nvm.LineSize, 11) {
				t.Fatalf("line %d after nested recovery: err=%v", i, err)
			}
		}
		return before, after, perr
	}

	before, after, _ := run(-1)
	if after-before < 2 {
		t.Fatalf("recovery crosses %d write boundaries; nothing to cut", after-before)
	}
	crashAt := before + (after-before)/2
	_, _, first := run(crashAt)
	_, _, second := run(crashAt)
	if first.Boundary != crashAt || *first != *second {
		t.Fatalf("nested power loss armed at %d fired at %+v, then %+v", crashAt, *first, *second)
	}
}

// Interface check: the chaos hook wiring used above matches what the
// device expects.
var _ func(int) []inject.Hook = (*chaos.Injector)(nil).ShardHooks
