package memctrl

import (
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/nvm"
	"soteria/internal/sim"
)

func newEager(t *testing.T, mode Mode) *Controller {
	t.Helper()
	c, err := New(config.TestSystem(), mode, []byte("eager"), Options{EagerTreeUpdate: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEagerRoundTripAndVerify(t *testing.T) {
	c := newEager(t, ModeSRC)
	rng := rand.New(rand.NewSource(1))
	var now sim.Time
	var err error
	lines := make(map[uint64]nvm.Line)
	for i := 0; i < 100; i++ {
		a := uint64(rng.Intn(1<<12)) * 64
		var l nvm.Line
		rng.Read(l[:8])
		if now, err = c.WriteBlock(now, a, &l); err != nil {
			t.Fatal(err)
		}
		lines[a] = l
	}
	for a, want := range lines {
		got, nn, err := c.ReadBlock(now, a)
		if err != nil || got != want {
			t.Fatalf("block %#x: %v", a, err)
		}
		now = nn
	}
	// Eager: the image must verify with NO flush — the root is already
	// fresh and nothing dirty is pending.
	if err := c.VerifyAll(); err != nil {
		t.Fatalf("eager image not self-consistent: %v", err)
	}
}

func TestEagerLeavesNothingDirty(t *testing.T) {
	c := newEager(t, ModeBaseline)
	var now sim.Time
	var err error
	var l nvm.Line
	for i := 0; i < 50; i++ {
		if now, err = c.WriteBlock(now, uint64(i)*4096, &l); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.mcache.DirtyLines()); n != 0 {
		t.Fatalf("%d dirty blocks after eager writes", n)
	}
	if c.ShadowStats().EntryWrites != 0 {
		t.Fatal("eager mode wrote shadow entries")
	}
}

func TestEagerCrashRecoveryIsTrivial(t *testing.T) {
	c := newEager(t, ModeSRC)
	var now sim.Time
	var err error
	var l nvm.Line
	l[0] = 0x77
	if now, err = c.WriteBlock(now, 0, &l); err != nil {
		t.Fatal(err)
	}
	c.Crash()
	rep, err := c.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrackedEntries != 0 {
		t.Fatalf("eager recovery tracked %d entries; expected none", rep.TrackedEntries)
	}
	got, _, err := c.ReadBlock(now, 0)
	if err != nil || got != l {
		t.Fatalf("data lost across eager crash: %v", err)
	}
}

func TestEagerCostsMoreThanLazy(t *testing.T) {
	run := func(eager bool) (sim.Time, uint64) {
		c, err := New(config.TestSystem(), ModeBaseline, []byte("k"), Options{EagerTreeUpdate: eager})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		var now sim.Time
		var l nvm.Line
		// A write-hot region: exactly the case lazy updates win —
		// repeated counter bumps coalesce in the cache, while eager
		// mode flushes the whole branch on every single store.
		for i := 0; i < 2000; i++ {
			a := uint64(rng.Intn(64)) * 64
			if now, err = c.WriteBlock(now, a, &l); err != nil {
				t.Fatal(err)
			}
		}
		return c.DrainWPQ(now), c.Stats().TotalNVMWrites()
	}
	lazyT, lazyW := run(false)
	eagerT, eagerW := run(true)
	if float64(eagerW) <= 1.5*float64(lazyW) {
		t.Fatalf("eager writes (%d) should far exceed lazy (%d)", eagerW, lazyW)
	}
	if eagerT <= lazyT {
		t.Fatalf("eager time (%v) not above lazy (%v)", eagerT, lazyT)
	}
}
