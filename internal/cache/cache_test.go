package cache

import (
	"testing"
	"testing/quick"

	"soteria/internal/config"
)

func tiny() config.CacheConfig {
	// 4 sets x 2 ways x 64B = 512B
	return config.CacheConfig{SizeBytes: 512, Ways: 2, LatencyCycles: 1}
}

func newCache[V any](t *testing.T, cfg config.CacheConfig) *Cache[V] {
	t.Helper()
	c, err := New[V](cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// insert is Claim with the payload supplied by value.
func insert[V any](c *Cache[V], addr uint64, v V, dirty bool) (Evicted, bool) {
	p, ev, has := c.Claim(addr, dirty)
	*p = v
	return ev, has
}

func resident[V any](c *Cache[V], addr uint64) bool {
	_, ok := c.Peek(addr)
	return ok
}

func TestBasicHitMiss(t *testing.T) {
	c := newCache[int](t, tiny())
	if _, ok := c.Lookup(0); ok {
		t.Fatal("hit in empty cache")
	}
	insert(c, 0, 42, false)
	v, ok := c.Lookup(0)
	if !ok || *v != 42 {
		t.Fatalf("lookup after insert: %v %v", v, ok)
	}
	// Same line, different byte offset.
	v, ok = c.Lookup(63)
	if !ok || *v != 42 {
		t.Fatal("offset within line missed")
	}
	if _, ok := c.Lookup(64); ok {
		t.Fatal("adjacent line hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newCache[string](t, tiny()) // 4 sets, 2 ways
	// Three lines mapping to set 0: line addresses 0, 256, 512 (4 sets * 64 = 256 stride).
	insert(c, 0, "a", false)
	insert(c, 256, "b", false)
	c.Lookup(0) // make "a" most recently used
	slot, res, pev, phas := c.Place(512)
	if res || !phas || pev.Addr != 256 || slot != c.SlotOf(256) {
		t.Fatalf("Place(512) = %d %v %+v %v, want line 256's slot %d", slot, res, pev, phas, c.SlotOf(256))
	}
	p, ev, has := c.ClaimAt(slot, 512, false)
	if !has {
		t.Fatal("no eviction from full set")
	}
	// The claimed way still holds the victim's payload until overwritten.
	if ev.Addr != 256 || *p != "b" {
		t.Fatalf("evicted %+v holding %q, want line 256 (b)", ev, *p)
	}
	*p = "c"
	if !resident(c, 0) || !resident(c, 512) || resident(c, 256) {
		t.Fatal("post-eviction contents wrong")
	}
}

// A pinned way is never a victim: selection falls to the LRU unpinned way,
// and a set whose every way is pinned yields no way at all.
func TestPinnedWaysAreNotVictims(t *testing.T) {
	c := newCache[string](t, tiny()) // 4 sets, 2 ways; 0, 256, 512 share set 0
	insert(c, 0, "a", false)
	insert(c, 256, "b", false)
	a, b := c.SlotOf(0), c.SlotOf(256)
	c.Pin(a)
	if slot, _, ev, has := c.Place(512); !has || ev.Addr != 256 || slot != b {
		t.Fatalf("Place predicted %d %+v %v, want the unpinned line 256", slot, ev, has)
	}
	c.Pin(b)
	if slot, _, _, has := c.Place(512); has || slot != -1 {
		t.Fatalf("Place chose pinned way %d", slot)
	}
	if slot, res, _, has := c.Place(256); !res || has || slot != b {
		t.Fatalf("Place(256) = %d %v %v, want its own pinned slot %d", slot, res, has, b)
	}
	before := c.Stats()
	if p, _, has := c.Claim(512, true); p != nil || has {
		t.Fatalf("Claim into a fully pinned set returned %v, %v", p, has)
	}
	if c.Stats() != before || resident(c, 512) || !resident(c, 0) || !resident(c, 256) {
		t.Fatal("a refused Claim changed the cache")
	}
	// A resident line is still claimable in a fully pinned set.
	if p, _, _ := c.Claim(256, false); p == nil || *p != "b" {
		t.Fatal("Claim of a resident pinned line refused")
	}
	c.Pin(a) // pins nest
	c.Unpin(a)
	c.Unpin(b)
	if _, _, ev, has := c.Place(512); !has || ev.Addr != 256 {
		t.Fatalf("after Unpin, Place predicted %+v %v, want line 256", ev, has)
	}
	c.Unpin(a)
	c.Lookup(256)
	if _, _, ev, has := c.Place(512); !has || ev.Addr != 0 {
		t.Fatalf("after the last Unpin, Place predicted %+v %v, want line 0", ev, has)
	}
}

func TestDirtyEvictionReported(t *testing.T) {
	c := newCache[int](t, tiny())
	insert(c, 0, 1, true)
	insert(c, 256, 2, false)
	ev, has := insert(c, 512, 3, false)
	if !has || !ev.Dirty || ev.Addr != 0 {
		t.Fatalf("dirty eviction wrong: %+v %v", ev, has)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatal("writeback not counted")
	}
}

func TestInsertExistingMergesDirty(t *testing.T) {
	c := newCache[int](t, tiny())
	insert(c, 0, 1, true)
	if _, has := insert(c, 0, 2, false); has {
		t.Fatal("re-insert evicted something")
	}
	v, _ := c.Peek(0)
	if *v != 2 {
		t.Fatal("payload not replaced")
	}
	if !c.IsDirty(0) {
		t.Fatal("dirty bit lost on re-insert")
	}
	if !c.Invalidate(0) || resident(c, 0) {
		t.Fatal("invalidate left the line resident")
	}
}

func TestMarkDirtyAndClean(t *testing.T) {
	c := newCache[int](t, tiny())
	if c.MarkDirty(0) {
		t.Fatal("marked absent line dirty")
	}
	insert(c, 0, 1, false)
	if !c.MarkDirty(0) {
		t.Fatal("failed to mark resident line")
	}
	if got := c.DirtyLines(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("dirty lines %v", got)
	}
	c.CleanLine(0)
	if len(c.DirtyLines()) != 0 {
		t.Fatal("clean line still dirty")
	}
}

func TestDropAllEmptiesCache(t *testing.T) {
	c := newCache[int](t, tiny())
	insert(c, 0, 1, true)
	insert(c, 64, 2, false)
	insert(c, 128, 3, true)
	if n := len(c.DirtyLines()); n != 2 {
		t.Fatalf("%d dirty lines before DropAll, want 2", n)
	}
	c.DropAll()
	for _, a := range []uint64{0, 64, 128} {
		if resident(c, a) {
			t.Fatalf("line %d resident after DropAll", a)
		}
	}
}

// Property: the cache never holds more lines than its capacity, and a line
// just inserted is always resident.
func TestCapacityInvariant(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 2048, Ways: 4, LatencyCycles: 1}
	capacity := cfg.SizeBytes / config.BlockSize
	c := newCache[uint64](t, cfg)
	seen := map[uint64]bool{}
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a) * config.BlockSize
			insert(c, addr, addr, a%2 == 0)
			seen[addr] = true
			if !resident(c, addr) {
				return false
			}
			n := 0
			for a := range seen {
				if resident(c, a) {
					n++
				}
			}
			if n > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with W ways, any W distinct lines of one set are simultaneously
// resident after being inserted back-to-back (no premature eviction).
func TestFullSetResidency(t *testing.T) {
	cfg := config.CacheConfig{SizeBytes: 4096, Ways: 8, LatencyCycles: 1}
	c := newCache[int](t, cfg)
	sets := uint64(cfg.Sets())
	for i := uint64(0); i < 8; i++ {
		insert(c, i*sets*config.BlockSize, int(i), false)
	}
	for i := uint64(0); i < 8; i++ {
		if !resident(c, i*sets*config.BlockSize) {
			t.Fatalf("way %d evicted early", i)
		}
	}
}

func TestRejectsBadConfig(t *testing.T) {
	if _, err := New[int](config.CacheConfig{SizeBytes: 100, Ways: 3}); err == nil {
		t.Fatal("bad config accepted")
	}
}
