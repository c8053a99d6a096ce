// Package cache is the one set-associative, write-back, true-LRU cache of
// the simulated system. Its two users instantiate it with their own
// payload: cpusim's L1/L2/LLC data hierarchy carries plaintext lines, and
// metacache carries counter blocks, tree nodes and MAC lines as stored.
//
// Every (set, way) slot is numbered set*ways+way and lives in three
// parallel flat arrays: the tags (line number plus one, 0 for a free way),
// the replacement state (LRU tick, pins, dirty bit) and the payloads. A
// probe is a shift, a mask and a scan of one set's tags — one 64-byte host
// line at 8 ways — and never touches a payload; there are no per-entry heap
// boxes. The cache is a purely functional model — it charges no latency
// (timing is the caller's business).
package cache

import (
	"math"

	"soteria/internal/config"
)

// Stats aggregates cache activity counters.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64 // total evictions of valid lines
	Writebacks uint64 // evictions of dirty lines
}

// MissRatio returns misses / (hits+misses), or 0 when unused.
func (s Stats) MissRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// Evicted identifies a line an insertion displaces — its address and
// dirty bit — without copying its payload.
type Evicted struct {
	Addr  uint64 // line-aligned byte address
	Dirty bool
}

// wayMeta is the replacement state of one (set, way) slot.
type wayMeta struct {
	lru   uint64 // tick of the last use; 0 while the way is free
	pins  uint32 // holders that need the line to stay resident
	dirty bool
}

// Cache is a set-associative write-back cache with true-LRU replacement.
// Its slots are numbered set*assoc+way and kept in three parallel arrays:
// keys holds each slot's line number plus one (0 while the way is free),
// meta its replacement state and vals its payload. A probe reads only the
// set's keys — one 64-byte run at 8 ways — and a victim choice adds the
// set's meta; neither touches a payload.
type Cache[V any] struct {
	keys    []uint64
	meta    []wayMeta
	vals    []V
	assoc   int
	setMask uint64
	tick    uint64
	stats   Stats
}

// New constructs a cache from a config.CacheConfig.
func New[V any](cfg config.CacheConfig) (*Cache[V], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Sets() * cfg.Ways
	return &Cache[V]{
		keys:    make([]uint64, n),
		meta:    make([]wayMeta, n),
		vals:    make([]V, n),
		assoc:   cfg.Ways,
		setMask: uint64(cfg.Sets() - 1),
	}, nil
}

// set returns addr's key (line number plus one) and the first slot of its
// set.
func (c *Cache[V]) set(addr uint64) (key uint64, base int) {
	line := addr / config.BlockSize
	return line + 1, int(line&c.setMask) * c.assoc
}

// find returns the slot holding addr, or -1.
func (c *Cache[V]) find(addr uint64) int {
	key, base := c.set(addr)
	for i, k := range c.keys[base : base+c.assoc] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// Place is the cache's replacement policy: it names the slot an insertion
// of addr would occupy right now, without changing any state. That is
// addr's own way when it is resident (resident is true), else the least
// recently used of the set's unpinned ways. A free way was never used (its
// tick is 0), so it goes before any resident line; the occupant of a valid
// victim would be evicted, and ev names it (evict is true) while its
// payload still sits in the slot. When addr is not resident and every way
// is pinned there is no slot (-1). ClaimAt(slot, addr, dirty) then claims
// the named way without probing the set again.
func (c *Cache[V]) Place(addr uint64) (slot int, resident bool, ev Evicted, evict bool) {
	key, base := c.set(addr)
	keys := c.keys[base : base+c.assoc]
	meta := c.meta[base : base+len(keys)]
	victim := -1
	oldest := uint64(math.MaxUint64) // above every tick
	for i, k := range keys {
		if k == key {
			return base + i, true, Evicted{}, false
		}
		if m := &meta[i]; m.pins == 0 && m.lru < oldest {
			victim, oldest = i, m.lru
		}
	}
	if victim < 0 {
		return -1, false, Evicted{}, false
	}
	if k := keys[victim]; k != 0 {
		return base + victim, false, Evicted{Addr: (k - 1) * config.BlockSize, Dirty: meta[victim].dirty}, true
	}
	return base + victim, false, Evicted{}, false
}

// Lookup probes the cache. On a hit it refreshes LRU state and returns a
// pointer to the payload (callers may mutate it in place). Stats are
// updated.
func (c *Cache[V]) Lookup(addr uint64) (*V, bool) {
	v, slot := c.LookupSlot(addr)
	return v, slot >= 0
}

// LookupSlot is Lookup that also names the slot of a hit (-1 on a miss).
// A caller that goes on working on the line — Hit, Pin, Unpin,
// MarkDirtyAt — passes the slot instead of probing the set again. A slot
// names its line until the line leaves the cache; a pinned line stays.
func (c *Cache[V]) LookupSlot(addr uint64) (*V, int) {
	if i := c.find(addr); i >= 0 {
		c.Hit(i)
		return &c.vals[i], i
	}
	c.stats.Misses++
	return nil, -1
}

// Hit records one more use of the resident line at slot: the LRU refresh
// and hit count of a Lookup, without the probe.
func (c *Cache[V]) Hit(slot int) {
	c.tick++
	c.meta[slot].lru = c.tick
	c.stats.Hits++
}

// At returns the payload of the resident line at slot.
func (c *Cache[V]) At(slot int) *V { return &c.vals[slot] }

// Peek probes without touching LRU state or statistics.
func (c *Cache[V]) Peek(addr uint64) (*V, bool) {
	if i := c.find(addr); i >= 0 {
		return &c.vals[i], true
	}
	return nil, false
}

// Claim makes addr resident and returns its way's payload for the caller
// to fill in place. It reports the line it evicted, if any; until the
// caller overwrites the payload it still holds the victim's, so a caller
// that must write the victim back reads it there without a copy.
// Claiming a resident address reuses its way (dirty bits OR together) and
// evicts nothing. When every way of the set is pinned nothing changes and
// the payload is nil.
func (c *Cache[V]) Claim(addr uint64, dirty bool) (*V, Evicted, bool) {
	slot, _, _, _ := c.Place(addr)
	if slot < 0 {
		return nil, Evicted{}, false
	}
	return c.ClaimAt(slot, addr, dirty)
}

// ClaimAt is Claim into the slot Place(addr) named, with no state changed
// in between: it evicts that way's occupant unless it already holds addr.
func (c *Cache[V]) ClaimAt(slot int, addr uint64, dirty bool) (*V, Evicted, bool) {
	c.tick++
	key := addr/config.BlockSize + 1
	m := &c.meta[slot]
	var ev Evicted
	old := c.keys[slot]
	evict := old != 0 && old != key
	if evict {
		ev = Evicted{Addr: (old - 1) * config.BlockSize, Dirty: m.dirty}
		c.stats.Evictions++
		if m.dirty {
			c.stats.Writebacks++
		}
	} else if old != 0 {
		dirty = dirty || m.dirty
	}
	c.keys[slot] = key
	m.dirty, m.lru = dirty, c.tick
	return &c.vals[slot], ev, evict
}

// Pin keeps the resident line at slot from being chosen as a victim
// until a matching Unpin; pins nest. Invalidate and DropAll drop a line's
// pins with it, and its holder must not Unpin it afterwards (an empty
// slot ignores an Unpin).
func (c *Cache[V]) Pin(slot int) { c.meta[slot].pins++ }

// Unpin releases one Pin of the line at slot.
func (c *Cache[V]) Unpin(slot int) {
	if c.meta[slot].pins > 0 {
		c.meta[slot].pins--
	}
}

// MarkDirty sets the dirty bit of a resident line; it reports whether the
// line was present.
func (c *Cache[V]) MarkDirty(addr uint64) bool {
	i := c.find(addr)
	if i >= 0 {
		c.MarkDirtyAt(i)
	}
	return i >= 0
}

// MarkDirtyAt sets the dirty bit of the resident line at slot.
func (c *Cache[V]) MarkDirtyAt(slot int) { c.meta[slot].dirty = true }

// CleanLine clears the dirty bit of a resident line (after a write-back).
func (c *Cache[V]) CleanLine(addr uint64) {
	if i := c.find(addr); i >= 0 {
		c.meta[i].dirty = false
	}
}

// IsDirty reports whether addr is resident and dirty.
func (c *Cache[V]) IsDirty(addr uint64) bool {
	i := c.find(addr)
	return i >= 0 && c.meta[i].dirty
}

// Invalidate drops a resident line without write-back; it reports whether
// the line was present.
func (c *Cache[V]) Invalidate(addr uint64) bool {
	i := c.find(addr)
	if i >= 0 {
		var zero V
		c.keys[i], c.meta[i], c.vals[i] = 0, wayMeta{}, zero
	}
	return i >= 0
}

// DropAll invalidates every line without write-back — what a power loss
// does to volatile state.
func (c *Cache[V]) DropAll() {
	clear(c.keys)
	clear(c.meta)
	clear(c.vals)
}

// DirtyLines returns the address of every dirty resident line, in slot
// order.
func (c *Cache[V]) DirtyLines() []uint64 {
	var out []uint64
	for i, k := range c.keys {
		if k != 0 && c.meta[i].dirty {
			out = append(out, (k-1)*config.BlockSize)
		}
	}
	return out
}

// SlotOf returns the slot (set*ways + way) of a resident line, or -1. The
// Anubis shadow table has exactly one entry per slot.
func (c *Cache[V]) SlotOf(addr uint64) int { return c.find(addr) }

// Slots returns the total number of (set, way) slots.
func (c *Cache[V]) Slots() int { return len(c.keys) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache[V]) Stats() Stats { return c.stats }
