// Package metacache is the security-metadata cache: the payload types
// and the per-level eviction accounting that drive Figures 4 and 10c of
// the paper, over internal/cache's set-associative LRU core. The metadata
// cache is the volatile on-chip structure (Table 3: 512 kB, 8-way) holding
// counter blocks, ToC nodes and packed data-MAC lines, each as the 64-byte
// line NVM stores; everything in it is trusted (it is inside the
// processor), and everything in it is lost at a crash.
//
// Set/way placement and replacement belong to the core; this package adds
// what the paper measures on top of it: dirty tree evictions by level,
// the payload kind and level of a victim, and telemetry.
package metacache

import (
	"fmt"

	"soteria/internal/cache"
	"soteria/internal/config"
	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
)

// Kind labels what a cached metadata block is.
type Kind int

// Metadata block kinds.
const (
	// KindCounter is a leaf split-counter block (tree level 1).
	KindCounter Kind = iota + 1
	// KindNode is an intermediate ToC node (tree level >= 2).
	KindNode
	// KindMAC is a packed line of eight data MACs. MAC lines are
	// cacheable but sit outside the integrity tree (Synergy-style),
	// so they are never cloned and never tracked by the shadow table.
	KindMAC
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindNode:
		return "node"
	case KindMAC:
		return "mac"
	default:
		return "?"
	}
}

// Block is the payload of one metadata cache line: the line itself, as
// NVM stores it, plus what the cache knows about it.
type Block struct {
	Kind  Kind
	Level int    // 1 for counters, >=2 for nodes, 0 for MAC lines
	Index uint64 // node index within its level, or MAC line index
	// Line is the block's stored image, read and updated in place: a
	// packed split-counter block (Counter), a ToC node (Node) or eight
	// packed data MACs. A fill copies it from NVM, and a write-back
	// MACs and writes it as it is.
	Line nvm.Line
	// UpdatesPerSlot counts in-cache minor-counter increments since the
	// block was last written back; the Osiris bound forces a write-back
	// when any slot reaches the recovery limit. Only used for
	// KindCounter. A fixed array (not a slice) so a block never drags a
	// heap allocation into the cache line.
	UpdatesPerSlot [ctrenc.CountersPerBlock]uint32
}

// Counter views a KindCounter block's line as its split counters.
func (b *Block) Counter() *ctrenc.CounterLine { return (*ctrenc.CounterLine)(&b.Line) }

// Node views a KindNode block's line as its ToC counters.
func (b *Block) Node() *itree.NodeLine { return (*itree.NodeLine)(&b.Line) }

// Stats aggregates metadata-cache behaviour for the evaluation figures.
type Stats struct {
	cache.Stats
	// EvictionsByLevel counts dirty tree evictions per level (element i
	// = level i; element 0 = MAC lines), the data behind Fig 4.
	EvictionsByLevel []uint64
	// DirtyTreeEvictions counts dirty counter/node evictions only
	// (the numerator of Fig 10c).
	DirtyTreeEvictions uint64
}

// telemetryHooks holds the cache's metric handles for what its books do
// not count. All fields are nil until AttachTelemetry is called, and nil
// handles are no-ops, so an unattached cache pays one nil check per event.
type telemetryHooks struct {
	hitsByLevel []*telemetry.Counter // bucket 0 = MAC lines, i = tree level i
	writebacks  *telemetry.Counter   // CleanLine calls
	invalidates *telemetry.Counter
	dropAll     *telemetry.Counter
}

// Cache is the metadata cache: the set-associative LRU core carrying
// Blocks, plus the eviction accounting and telemetry.
type Cache struct {
	c      *cache.Cache[Block]
	levels int
	st     Stats
	tel    telemetryHooks
}

// AttachTelemetry exports the cache's books to r and registers its
// handles there (nil detaches the handles). The per-level series mirror
// Fig 4: bucket 0 is MAC lines, bucket i is tree level i.
func (m *Cache) AttachTelemetry(r *telemetry.Registry) {
	r.Export("metacache_hits_total", func() uint64 { return m.c.Stats().Hits })
	r.Export("metacache_misses_total", func() uint64 { return m.c.Stats().Misses })
	r.Export("metacache_evictions_total", func() uint64 { return m.c.Stats().Evictions })
	r.Export("metacache_dirty_tree_evictions_total", func() uint64 { return m.st.DirtyTreeEvictions })
	for l := range m.st.EvictionsByLevel {
		r.Export(fmt.Sprintf("metacache_dirty_evictions_level_%d_total", l), func() uint64 { return m.st.EvictionsByLevel[l] })
	}
	hits := make([]*telemetry.Counter, m.levels+1)
	for l := range hits {
		hits[l] = r.Counter(fmt.Sprintf("metacache_hits_level_%d_total", l))
	}
	m.tel = telemetryHooks{
		hitsByLevel: hits,
		writebacks:  r.Counter("metacache_writebacks_total"),
		invalidates: r.Counter("metacache_invalidates_total"),
		dropAll:     r.Counter("metacache_dropall_total"),
	}
}

// New constructs a metadata cache from its configuration; levels is the
// number of stored tree levels (for the eviction histogram).
func New(cfg config.CacheConfig, levels int) (*Cache, error) {
	c, err := cache.New[Block](cfg)
	if err != nil {
		return nil, err
	}
	return &Cache{c: c, levels: levels, st: Stats{EvictionsByLevel: make([]uint64, levels+1)}}, nil
}

// Lookup probes for the block with the given home address. On a hit it
// refreshes LRU state and returns a pointer to the payload (callers may
// mutate it in place).
func (m *Cache) Lookup(homeAddr uint64) (*Block, bool) {
	b, slot := m.LookupSlot(homeAddr)
	return b, slot >= 0
}

// LookupSlot is Lookup that also returns the block's slot (-1 on a
// miss), through which Hit, Pin, Unpin and MarkDirty reach the way
// without probing its set again. The slot names the block until it leaves
// the cache; a pinned block stays.
func (m *Cache) LookupSlot(homeAddr uint64) (*Block, int) {
	b, slot := m.c.LookupSlot(homeAddr)
	if slot >= 0 {
		m.noteHit(b)
	}
	return b, slot
}

// Hit records one more access to the resident block at slot, counted and
// LRU-refreshed exactly as a Lookup hit, without the probe.
func (m *Cache) Hit(slot int) {
	m.c.Hit(slot)
	m.noteHit(m.c.At(slot))
}

// noteHit counts a hit on b's level, tolerating out-of-range levels
// (defensive: MAC lines carry level 0).
func (m *Cache) noteHit(b *Block) {
	if b.Level >= 0 && b.Level < len(m.tel.hitsByLevel) {
		m.tel.hitsByLevel[b.Level].Inc()
	}
}

// At returns the resident block at slot.
func (m *Cache) At(slot int) *Block { return m.c.At(slot) }

// Peek probes without LRU/statistics side effects.
func (m *Cache) Peek(homeAddr uint64) (*Block, bool) { return m.c.Peek(homeAddr) }

// MarkDirty marks the resident block at slot dirty.
func (m *Cache) MarkDirty(slot int) { m.c.MarkDirtyAt(slot) }

// CleanLine clears a resident block's dirty bit after write-back.
func (m *Cache) CleanLine(homeAddr uint64) {
	m.tel.writebacks.Inc()
	m.c.CleanLine(homeAddr)
}

// IsDirty reports whether the block at homeAddr is resident and dirty,
// without touching LRU state.
func (m *Cache) IsDirty(homeAddr uint64) bool { return m.c.IsDirty(homeAddr) }

// Evicted identifies a line an insertion displaces: enough to decide what
// to do about it (write it back first) without copying its 344-byte
// payload. A caller that needs the payload of a predicted victim reads it
// in place at the slot Place named.
type Evicted struct {
	Addr  uint64
	Dirty bool
	Kind  Kind
	Level int
}

// evicted describes the core's victim ev, whose payload is b.
func evicted(b *Block, ev cache.Evicted) Evicted {
	return Evicted{Addr: ev.Addr, Dirty: ev.Dirty, Kind: b.Kind, Level: b.Level}
}

// Claim makes homeAddr resident and returns its way's payload, zeroed, for
// the caller to fill in place. It reports the line it evicted, if any;
// dirty tree evictions are histogrammed by level. Claiming a resident
// address reuses its way (dirty bits OR together) and evicts nothing. When
// every way of the set is pinned the payload is nil and nothing changes.
func (m *Cache) Claim(homeAddr uint64, dirty bool) (*Block, Evicted, bool) {
	slot, _, _, _ := m.c.Place(homeAddr)
	if slot < 0 {
		return nil, Evicted{}, false
	}
	return m.ClaimAt(slot, homeAddr, dirty)
}

// ClaimAt is Claim into the slot Place(homeAddr) named, with no cache
// state changed in between, so the set is not probed again.
func (m *Cache) ClaimAt(slot int, homeAddr uint64, dirty bool) (*Block, Evicted, bool) {
	b, cev, evict := m.c.ClaimAt(slot, homeAddr, dirty)
	var ev Evicted
	if evict {
		ev = evicted(b, cev)
		if ev.Dirty && ev.Kind != KindMAC {
			m.NoteEvictionWriteback(ev.Level)
		}
	}
	*b = Block{}
	return b, ev, evict
}

// Insert is Claim with the payload supplied by value; the returned way is
// nil, and nothing is inserted, when every way of the set is pinned.
func (m *Cache) Insert(homeAddr uint64, b Block, dirty bool) (*Block, Evicted, bool) {
	p, ev, has := m.Claim(homeAddr, dirty)
	if p != nil {
		*p = b
	}
	return p, ev, has
}

// Place names the slot Claim(homeAddr, ...) would take, without changing
// any cache state: homeAddr's own way when it is resident, else the set's
// LRU unpinned way, whose occupant ev would be evicted (evict is true),
// or -1 when every way is pinned. The controller writes a dirty victim
// back *before* the insertion so the victim's shadow-table entry stays
// valid until its contents are durable, then claims the named way with
// ClaimAt.
func (m *Cache) Place(homeAddr uint64) (slot int, resident bool, ev Evicted, evict bool) {
	slot, resident, cev, evict := m.c.Place(homeAddr)
	if evict {
		ev = evicted(m.c.At(slot), cev)
	}
	return slot, resident, ev, evict
}

// Pin keeps the resident block at slot from being evicted until a
// matching Unpin; pins nest. Invalidate and DropAll drop the pins with the
// block.
func (m *Cache) Pin(slot int) { m.c.Pin(slot) }

// Unpin releases one Pin of the block at slot.
func (m *Cache) Unpin(slot int) { m.c.Unpin(slot) }

// NoteEvictionWriteback records one dirty tree block written back under
// eviction pressure. The controller pre-cleans dirty victims (write-back
// while still resident, then evict clean) for crash safety, so these
// events no longer surface as dirty evictions in Claim; this keeps the
// Fig 4 per-level histogram counting them.
func (m *Cache) NoteEvictionWriteback(level int) {
	m.st.EvictionsByLevel[level]++
	m.st.DirtyTreeEvictions++
}

// Invalidate drops one block without write-back; it reports whether the
// block was resident.
func (m *Cache) Invalidate(homeAddr uint64) bool {
	ok := m.c.Invalidate(homeAddr)
	if ok {
		m.tel.invalidates.Inc()
	}
	return ok
}

// DropAll models power loss: every block vanishes.
func (m *Cache) DropAll() {
	m.tel.dropAll.Inc()
	m.c.DropAll()
}

// DirtyLines lists the home addresses of resident dirty blocks, in slot
// order.
func (m *Cache) DirtyLines() []uint64 { return m.c.DirtyLines() }

// SlotOf returns the shadow-table slot (set*ways + way) of a resident
// block, or -1. The Anubis shadow table has exactly one entry per cache
// way.
func (m *Cache) SlotOf(homeAddr uint64) int { return m.c.SlotOf(homeAddr) }

// Slots returns the total number of (set, way) slots.
func (m *Cache) Slots() int { return m.c.Slots() }

// Stats returns a snapshot of the metadata cache statistics.
func (m *Cache) Stats() Stats {
	s := m.st
	s.Stats = m.c.Stats()
	return s
}
