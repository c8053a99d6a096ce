// Package cache is the one set-associative, write-back, true-LRU cache of
// the simulated system. Its two users instantiate it with their own
// payload: cpusim's L1/L2/LLC data hierarchy carries plaintext lines, and
// metacache carries decoded counter blocks, tree nodes and MAC lines.
//
// The backing store is a single flat array of sets×ways, indexed
// set*ways+way, with the line number, valid/dirty bits, an inline LRU tick
// and the payload in the way itself: a probe is a shift, a mask and a scan
// of one set, with no per-entry heap boxes. The cache is a purely
// functional model — it charges no latency (timing is the caller's
// business).
package cache

import "soteria/internal/config"

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

// way is one (set, way) slot of the flat backing array.
type way[V any] struct {
	valid bool
	dirty bool
	pins  uint32 // holders that need the line to stay resident
	line  uint64 // addr / BlockSize; its low bits are the set index
	lru   uint64 // tick of the last use; 0 while the way is free
	value V
}

// Cache is a set-associative write-back cache with true-LRU replacement,
// backed by one flat array indexed ways[set*assoc+way].
type Cache[V any] struct {
	ways    []way[V]
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
	nsets := cfg.Sets()
	return &Cache[V]{
		ways:    make([]way[V], nsets*cfg.Ways),
		assoc:   cfg.Ways,
		setMask: uint64(nsets - 1),
	}, nil
}

// set returns addr's line number and the offset of its set in c.ways.
func (c *Cache[V]) set(addr uint64) (line uint64, base int) {
	line = addr / config.BlockSize
	return line, int(line&c.setMask) * c.assoc
}

// find returns the slot holding addr, or -1.
func (c *Cache[V]) find(addr uint64) int {
	line, base := c.set(addr)
	ws := c.ways[base : base+c.assoc]
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			return base + i
		}
	}
	return -1
}

// wayFor is the cache's replacement policy: the slot an insertion of addr
// occupies is its resident way, else the least recently used of the set's
// unpinned ways. A free way was never used (its tick is 0), so it goes
// before any resident line; the occupant of a valid victim is evicted
// (evict is true). When addr is not resident and every way is pinned there
// is no slot (-1).
func (c *Cache[V]) wayFor(addr uint64) (slot int, line uint64, evict bool) {
	line, base := c.set(addr)
	ws := c.ways[base : base+c.assoc]
	victim := -1
	for i := range ws {
		if ws[i].valid && ws[i].line == line {
			return base + i, line, false
		}
		if ws[i].pins == 0 && (victim < 0 || ws[i].lru < ws[victim].lru) {
			victim = i
		}
	}
	if victim < 0 {
		return -1, line, false
	}
	return base + victim, line, ws[victim].valid
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
		return &c.ways[i].value, i
	}
	c.stats.Misses++
	return nil, -1
}

// Hit records one more use of the resident line at slot: the LRU refresh
// and hit count of a Lookup, without the probe.
func (c *Cache[V]) Hit(slot int) {
	c.tick++
	c.ways[slot].lru = c.tick
	c.stats.Hits++
}

// At returns the payload of the resident line at slot.
func (c *Cache[V]) At(slot int) *V { return &c.ways[slot].value }

// Peek probes without touching LRU state or statistics.
func (c *Cache[V]) Peek(addr uint64) (*V, bool) {
	if i := c.find(addr); i >= 0 {
		return &c.ways[i].value, true
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
	i, line, evict := c.wayFor(addr)
	if i < 0 {
		return nil, Evicted{}, false
	}
	c.tick++
	w := &c.ways[i]
	var ev Evicted
	if evict {
		ev = Evicted{Addr: w.line * config.BlockSize, Dirty: w.dirty}
		c.stats.Evictions++
		if w.dirty {
			c.stats.Writebacks++
		}
	} else if w.valid {
		dirty = dirty || w.dirty
	}
	w.valid, w.dirty, w.line, w.lru = true, dirty, line, c.tick
	return &w.value, ev, evict
}

// Victim predicts what Claim(addr, ...) would evict right now, without
// changing any state: nothing when addr is resident, its set has a free
// way or every way is pinned, otherwise the set's LRU unpinned line, whose
// payload is returned in place.
// The secure controller uses this to write back a dirty victim *before*
// the insertion so the victim's shadow-table entry stays valid until its
// contents are durable.
func (c *Cache[V]) Victim(addr uint64) (*V, Evicted, bool) {
	i, _, evict := c.wayFor(addr)
	if !evict {
		return nil, Evicted{}, false
	}
	w := &c.ways[i]
	return &w.value, Evicted{Addr: w.line * config.BlockSize, Dirty: w.dirty}, true
}

// Pin keeps the resident line at slot from being chosen as a victim
// until a matching Unpin; pins nest. Invalidate and DropAll drop a line's
// pins with it, and its holder must not Unpin it afterwards (an empty
// slot ignores an Unpin).
func (c *Cache[V]) Pin(slot int) { c.ways[slot].pins++ }

// Unpin releases one Pin of the line at slot.
func (c *Cache[V]) Unpin(slot int) {
	if c.ways[slot].pins > 0 {
		c.ways[slot].pins--
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
func (c *Cache[V]) MarkDirtyAt(slot int) { c.ways[slot].dirty = true }

// CleanLine clears the dirty bit of a resident line (after a write-back).
func (c *Cache[V]) CleanLine(addr uint64) {
	if i := c.find(addr); i >= 0 {
		c.ways[i].dirty = false
	}
}

// IsDirty reports whether addr is resident and dirty.
func (c *Cache[V]) IsDirty(addr uint64) bool {
	i := c.find(addr)
	return i >= 0 && c.ways[i].dirty
}

// Invalidate drops a resident line without write-back; it reports whether
// the line was present.
func (c *Cache[V]) Invalidate(addr uint64) bool {
	i := c.find(addr)
	if i >= 0 {
		c.ways[i] = way[V]{}
	}
	return i >= 0
}

// DropAll invalidates every line without write-back — what a power loss
// does to volatile state.
func (c *Cache[V]) DropAll() { clear(c.ways) }

// DirtyLines returns the address of every dirty resident line, in slot
// order.
func (c *Cache[V]) DirtyLines() []uint64 {
	var out []uint64
	for i := range c.ways {
		if w := &c.ways[i]; w.valid && w.dirty {
			out = append(out, w.line*config.BlockSize)
		}
	}
	return out
}

// SlotOf returns the slot (set*ways + way) of a resident line, or -1. The
// Anubis shadow table has exactly one entry per slot.
func (c *Cache[V]) SlotOf(addr uint64) int { return c.find(addr) }

// Slots returns the total number of (set, way) slots.
func (c *Cache[V]) Slots() int { return len(c.ways) }

// Stats returns a copy of the accumulated statistics.
func (c *Cache[V]) Stats() Stats { return c.stats }
