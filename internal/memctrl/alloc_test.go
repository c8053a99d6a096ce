package memctrl

import (
	"math/rand"
	"runtime"
	"testing"

	"soteria/internal/config"
)

// TestWriteBlockSteadyStateZeroAllocs pins the warm-cache secure write
// path at zero heap allocations per operation. The working set is sized
// so every metadata block is cache-resident and rotated so no minor
// counter approaches overflow (which would trigger a legitimate
// major-counter rewrite) during the measured runs; what remains is the
// pure datapath — encrypt, MAC, tree update, WPQ admission — which must
// run entirely out of controller-owned scratch.
func TestWriteBlockSteadyStateZeroAllocs(t *testing.T) {
	for _, strategy := range Strategies() {
		t.Run("strategy="+strategy, func(t *testing.T) {
			ctrl, err := New(config.TestSystem(), ModeSRC, []byte("alloc-test"), Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			var line [64]byte
			now := ctrl.DrainWPQ(0)
			for i := 0; i < 512; i++ {
				if now, err = ctrl.WriteBlock(now, uint64(i)*64, &line); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(256, func() {
				if now, err = ctrl.WriteBlock(now, uint64(i%512)*64, &line); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if avg != 0 {
				t.Fatalf("steady-state WriteBlock allocates %.2f objects/op, want 0", avg)
			}
		})
	}
}

// TestReadBlockSteadyStateZeroAllocs is the read-side companion: a warm
// verified read must not allocate either.
func TestReadBlockSteadyStateZeroAllocs(t *testing.T) {
	ctrl, err := New(config.TestSystem(), ModeSRC, []byte("alloc-test"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var line [64]byte
	now := ctrl.DrainWPQ(0)
	for i := 0; i < 512; i++ {
		if now, err = ctrl.WriteBlock(now, uint64(i)*64, &line); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(256, func() {
		if _, now, err = ctrl.ReadBlock(now, uint64(i%512)*64); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state ReadBlock allocates %.2f objects/op, want 0", avg)
	}
}

// TestReadBlockMissZeroAllocs pins the metadata miss path: with every block
// of the 4 MB image written, uniform random reads miss the 8 kB metadata
// cache on nearly every op, so each one runs verified fetches (fault
// handler, MAC check in place, decode into the claimed way), MAC-line
// fills and the write-backs of the dirty victims they displace.
func TestReadBlockMissZeroAllocs(t *testing.T) {
	cfg := config.TestSystem()
	ctrl, err := New(cfg, ModeSRC, []byte("alloc-test"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := cfg.NVM.CapacityBytes / 64
	var line [64]byte
	now := ctrl.DrainWPQ(0)
	for i := uint64(0); i < blocks; i++ {
		if now, err = ctrl.WriteBlock(now, i*64, &line); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	read := func() {
		if _, now, err = ctrl.ReadBlock(now, uint64(rng.Int63n(int64(blocks)))*64); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		read()
	}
	before := ctrl.MetaStats()
	allocs := mallocsOver(1000, read)
	after := ctrl.MetaStats()
	if misses := after.Misses - before.Misses; misses < 1000 {
		t.Fatalf("%d metadata misses in 1000 reads; the test no longer exercises the miss path", misses)
	}
	if allocs != 0 {
		t.Fatalf("1000 ReadBlocks with metadata misses allocate %d objects, want 0", allocs)
	}
}

// TestWriteBlockEvictZeroAllocs pins the eviction-heavy write path (the
// ctrl-write-evict regime): uniform random writes over 2048 blocks keep
// missing the metadata cache and evicting dirty metadata, whose write-backs
// bump parents lazily and push atomic clone groups.
func TestWriteBlockEvictZeroAllocs(t *testing.T) {
	for _, strategy := range Strategies() {
		t.Run("strategy="+strategy, func(t *testing.T) {
			ctrl, err := New(config.TestSystem(), ModeSRC, []byte("alloc-test"), Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			var line [64]byte
			now := ctrl.DrainWPQ(0)
			rng := rand.New(rand.NewSource(1))
			write := func() {
				if now, err = ctrl.WriteBlock(now, uint64(rng.Intn(2048))*64, &line); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 4096; i++ {
				write()
			}
			before := ctrl.MetaStats()
			allocs := mallocsOver(1000, write)
			after := ctrl.MetaStats()
			if misses := after.Misses - before.Misses; misses < 100 {
				t.Fatalf("%d metadata misses in 1000 writes; the test no longer exercises the miss path", misses)
			}
			if allocs != 0 {
				t.Fatalf("1000 evicting WriteBlocks allocate %d objects, want 0", allocs)
			}
		})
	}
}

// mallocsOver counts the heap allocations of n calls to f. Unlike
// testing.AllocsPerRun, which floors the per-call average, it reports the
// exact total, so a path that allocates on a fraction of its calls (a miss
// path under a partial hit ratio) cannot hide below one per call.
func mallocsOver(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
