// Package metacache implements the security-metadata cache with the
// payload types and the per-level eviction statistics that drive Figures 4
// and 10c of the paper. The metadata cache is the volatile on-chip
// structure (Table 3: 512 kB, 8-way) holding decoded counter blocks, ToC
// nodes and packed data-MAC lines; everything in it is trusted (it is
// inside the processor), and everything in it is lost at a crash.
//
// Unlike the data hierarchy (internal/cache), the metadata cache sits on
// the controller's per-access critical path, so its backing store is a
// single flat array of sets×ways lines — direct set/way indexing, inline
// LRU stamps, no per-entry heap boxes — while preserving the generic
// cache's observable semantics exactly (the differential test drives both
// against the same reference model). It reuses internal/cache's Stats and
// Entry types so callers are unchanged.
package metacache

import (
	"fmt"

	"soteria/internal/cache"
	"soteria/internal/config"
	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/nvm"
	"soteria/internal/stats"
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

// Block is the decoded payload of one metadata cache line.
type Block struct {
	Kind  Kind
	Level int    // 1 for counters, >=2 for nodes, 0 for MAC lines
	Index uint64 // node index within its level, or MAC line index
	// Counter holds the decoded split-counter block when Kind ==
	// KindCounter.
	Counter ctrenc.CounterBlock
	// Node holds the decoded ToC node when Kind == KindNode.
	Node itree.Node
	// Raw holds the packed MAC line when Kind == KindMAC.
	Raw nvm.Line
	// UpdatesPerSlot counts in-cache minor-counter increments since the
	// block was last written back; the Osiris bound forces a write-back
	// when any slot reaches the recovery limit. Only used for
	// KindCounter. A fixed array (not a slice) so a decoded block never
	// drags a heap allocation into the cache line.
	UpdatesPerSlot [ctrenc.CountersPerBlock]uint32
}

// Stats aggregates metadata-cache behaviour for the evaluation figures.
type Stats struct {
	cache.Stats
	// EvictionsByLevel histograms dirty tree evictions per level
	// (bucket i = level i; bucket 0 = MAC lines), the data behind
	// Fig 4.
	EvictionsByLevel *stats.Histogram
	// DirtyTreeEvictions counts dirty counter/node evictions only
	// (the numerator of Fig 10c).
	DirtyTreeEvictions uint64
}

// telemetryHooks holds the cache's metric handles. All fields are nil
// until AttachTelemetry is called, and nil handles are no-ops, so an
// unattached cache pays one nil check per event.
type telemetryHooks struct {
	hits        *telemetry.Counter
	misses      *telemetry.Counter
	evictions   *telemetry.Counter
	writebacks  *telemetry.Counter
	hitsByLevel []*telemetry.Counter // bucket 0 = MAC lines, i = tree level i
	evByLevel   []*telemetry.Counter // dirty tree evictions per level
	dirtyEvict  *telemetry.Counter
	invalidates *telemetry.Counter
	dropAll     *telemetry.Counter
}

// line is one (set, way) slot of the flat backing array.
type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
	block Block
}

// Cache is the metadata cache: set-associative, write-back, true-LRU,
// backed by one flat array indexed as lines[set*ways+way].
type Cache struct {
	lines    []line
	ways     int
	setMask  uint64
	setBits  uint
	lineBits uint
	tick     uint64

	cs     cache.Stats
	levels int
	st     Stats
	tel    telemetryHooks
}

// AttachTelemetry registers the cache's metrics on r (nil detaches). The
// per-level series mirror Fig 4: bucket 0 is MAC lines, bucket i is tree
// level i.
func (m *Cache) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		m.tel = telemetryHooks{}
		return
	}
	m.tel = telemetryHooks{
		hits:        r.Counter("metacache_hits_total"),
		misses:      r.Counter("metacache_misses_total"),
		evictions:   r.Counter("metacache_evictions_total"),
		writebacks:  r.Counter("metacache_writebacks_total"),
		dirtyEvict:  r.Counter("metacache_dirty_tree_evictions_total"),
		invalidates: r.Counter("metacache_invalidates_total"),
		dropAll:     r.Counter("metacache_dropall_total"),
	}
	m.tel.hitsByLevel = make([]*telemetry.Counter, m.levels+1)
	m.tel.evByLevel = make([]*telemetry.Counter, m.levels+1)
	for l := 0; l <= m.levels; l++ {
		m.tel.hitsByLevel[l] = r.Counter(fmt.Sprintf("metacache_hits_level_%d_total", l))
		m.tel.evByLevel[l] = r.Counter(fmt.Sprintf("metacache_dirty_evictions_level_%d_total", l))
	}
}

// noteLevel increments a per-level counter, tolerating out-of-range
// levels (defensive: MAC lines carry level 0).
func noteLevel(ctrs []*telemetry.Counter, level int) {
	if level >= 0 && level < len(ctrs) {
		ctrs[level].Inc()
	}
}

// New constructs a metadata cache from its configuration; levels is the
// number of stored tree levels (for the eviction histogram).
func New(cfg config.CacheConfig, levels int) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	m := &Cache{
		lines:   make([]line, nsets*cfg.Ways),
		ways:    cfg.Ways,
		setMask: uint64(nsets - 1),
		levels:  levels,
		st:      Stats{EvictionsByLevel: stats.NewHistogram(levels + 1)},
	}
	for s := config.BlockSize; s > 1; s >>= 1 {
		m.lineBits++
	}
	for s := nsets; s > 1; s >>= 1 {
		m.setBits++
	}
	return m, nil
}

// index splits addr into its set and tag.
func (m *Cache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> m.lineBits
	return l & m.setMask, l >> m.setBits
}

// set returns the ways of one set as a subslice of the flat array.
func (m *Cache) set(set uint64) []line {
	base := int(set) * m.ways
	return m.lines[base : base+m.ways]
}

// addrOf reassembles the line-aligned address of a (set, tag) pair.
func (m *Cache) addrOf(set, tag uint64) uint64 {
	return (tag<<m.setBits | set) << m.lineBits
}

// find returns the way index holding addr within its set, or -1.
func (m *Cache) find(ws []line, tag uint64) int {
	for i := range ws {
		if ws[i].valid && ws[i].tag == tag {
			return i
		}
	}
	return -1
}

// Lookup probes for the block with the given home address. On a hit it
// refreshes LRU state and returns a pointer to the payload (callers may
// mutate it in place).
func (m *Cache) Lookup(homeAddr uint64) (*Block, bool) {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	if i := m.find(ws, tag); i >= 0 {
		m.tick++
		ws[i].lru = m.tick
		m.cs.Hits++
		m.tel.hits.Inc()
		noteLevel(m.tel.hitsByLevel, ws[i].block.Level)
		return &ws[i].block, true
	}
	m.cs.Misses++
	m.tel.misses.Inc()
	return nil, false
}

// Peek probes without LRU/statistics side effects.
func (m *Cache) Peek(homeAddr uint64) (*Block, bool) {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	if i := m.find(ws, tag); i >= 0 {
		return &ws[i].block, true
	}
	return nil, false
}

// MarkDirty marks a resident block dirty.
func (m *Cache) MarkDirty(homeAddr uint64) bool {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	if i := m.find(ws, tag); i >= 0 {
		ws[i].dirty = true
		return true
	}
	return false
}

// CleanLine clears a resident block's dirty bit after write-back.
func (m *Cache) CleanLine(homeAddr uint64) {
	m.tel.writebacks.Inc()
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	if i := m.find(ws, tag); i >= 0 {
		ws[i].dirty = false
	}
}

// Evicted identifies a line an insertion displaces: enough to decide what
// to do about it (write it back, steer around it) without copying its
// ~500-byte payload. A caller that needs the payload of a predicted victim
// reads it in place with Peek(Addr).
type Evicted struct {
	Addr  uint64
	Dirty bool
	Kind  Kind
	Level int
}

// wayFor returns the way an insertion of tag into ws occupies: its
// resident way, else the first free way, else the LRU way, whose occupant
// is then evicted (evict is true).
func (m *Cache) wayFor(ws []line, tag uint64) (way int, evict bool) {
	if i := m.find(ws, tag); i >= 0 {
		return i, false
	}
	for i := range ws {
		if !ws[i].valid {
			return i, false
		}
	}
	victim := 0
	for i := 1; i < len(ws); i++ {
		if ws[i].lru < ws[victim].lru {
			victim = i
		}
	}
	return victim, true
}

// Claim makes homeAddr resident and returns its way's payload, zeroed, for
// the caller to fill in place — a fetched line decodes once, straight into
// the cache. It reports the line it evicted, if any; dirty tree evictions
// are histogrammed by level. Claiming a resident address reuses its way
// (dirty bits OR together) and evicts nothing.
func (m *Cache) Claim(homeAddr uint64, dirty bool) (*Block, Evicted, bool) {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	m.tick++
	w, evict := m.wayFor(ws, tag)
	l := &ws[w]
	wasDirty := l.valid && !evict && l.dirty // resident re-claim
	var ev Evicted
	if evict {
		ev = Evicted{Addr: m.addrOf(set, l.tag), Dirty: l.dirty, Kind: l.block.Kind, Level: l.block.Level}
		m.cs.Evictions++
		m.tel.evictions.Inc()
		if ev.Dirty {
			m.cs.Writebacks++
		}
		if ev.Dirty && ev.Kind != KindMAC {
			m.st.EvictionsByLevel.Observe(ev.Level)
			m.st.DirtyTreeEvictions++
			m.tel.dirtyEvict.Inc()
			noteLevel(m.tel.evByLevel, ev.Level)
		}
	}
	*l = line{valid: true, dirty: dirty || wasDirty, tag: tag, lru: m.tick}
	return &l.block, ev, evict
}

// Insert is Claim with the payload supplied by value.
func (m *Cache) Insert(homeAddr uint64, b Block, dirty bool) (Evicted, bool) {
	p, ev, has := m.Claim(homeAddr, dirty)
	*p = b
	return ev, has
}

// Victim predicts what Claim(homeAddr, ...) would evict, without
// changing any cache state: nothing when the address is resident or its
// set has a free way, otherwise the set's LRU line. The secure controller
// uses this to write back a dirty victim *before* the insertion so the
// victim's shadow-table entry stays valid until its contents are durable.
func (m *Cache) Victim(homeAddr uint64) (Evicted, bool) {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	w, evict := m.wayFor(ws, tag)
	if !evict {
		return Evicted{}, false
	}
	l := &ws[w]
	return Evicted{Addr: m.addrOf(set, l.tag), Dirty: l.dirty, Kind: l.block.Kind, Level: l.block.Level}, true
}

// Touch refreshes a resident block's LRU state (no hit is counted).
func (m *Cache) Touch(homeAddr uint64) {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	if i := m.find(ws, tag); i >= 0 {
		m.tick++
		ws[i].lru = m.tick
	}
}

// NoteEvictionWriteback records one dirty tree block written back under
// eviction pressure. The controller pre-cleans dirty victims (write-back
// while still resident, then evict clean) for crash safety, so these
// events no longer surface as dirty evictions in Insert; this keeps the
// Fig 4 per-level histogram counting them.
func (m *Cache) NoteEvictionWriteback(level int) {
	m.st.EvictionsByLevel.Observe(level)
	m.st.DirtyTreeEvictions++
	m.tel.dirtyEvict.Inc()
	noteLevel(m.tel.evByLevel, level)
}

// Invalidate drops one line without write-back.
func (m *Cache) Invalidate(homeAddr uint64) (cache.Entry[Block], bool) {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	if i := m.find(ws, tag); i >= 0 {
		e := cache.Entry[Block]{
			Addr:  homeAddr &^ (config.BlockSize - 1),
			Dirty: ws[i].dirty,
			Value: ws[i].block,
		}
		ws[i] = line{}
		m.tel.invalidates.Inc()
		return e, true
	}
	return cache.Entry[Block]{}, false
}

// DropAll models power loss: every line vanishes; the dirty ones are
// returned so tests can reason about what recovery must reconstruct.
func (m *Cache) DropAll() []cache.Entry[Block] {
	m.tel.dropAll.Inc()
	var dirty []cache.Entry[Block]
	for i := range m.lines {
		l := &m.lines[i]
		if l.valid && l.dirty {
			set := uint64(i / m.ways)
			dirty = append(dirty, cache.Entry[Block]{
				Addr:  m.addrOf(set, l.tag),
				Dirty: true,
				Value: l.block,
			})
		}
		*l = line{}
	}
	return dirty
}

// IsDirty reports whether the block at homeAddr is resident and dirty,
// without allocating or touching LRU state.
func (m *Cache) IsDirty(homeAddr uint64) bool {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	i := m.find(ws, tag)
	return i >= 0 && ws[i].dirty
}

// DirtyEntries lists resident dirty blocks, in set order.
func (m *Cache) DirtyEntries() []cache.Entry[Block] {
	var out []cache.Entry[Block]
	for i := range m.lines {
		l := &m.lines[i]
		if l.valid && l.dirty {
			set := uint64(i / m.ways)
			out = append(out, cache.Entry[Block]{
				Addr:  m.addrOf(set, l.tag),
				Dirty: true,
				Value: l.block,
			})
		}
	}
	return out
}

// SlotOf returns the shadow-table slot (set*ways + way) of a resident
// block, or -1. The Anubis shadow table has exactly one entry per cache
// way.
func (m *Cache) SlotOf(homeAddr uint64) int {
	set, tag := m.index(homeAddr)
	ws := m.set(set)
	w := m.find(ws, tag)
	if w < 0 {
		return -1
	}
	return int(set)*m.ways + w
}

// Slots returns the total number of (set, way) slots.
func (m *Cache) Slots() int { return len(m.lines) }

// Stats returns a snapshot of the metadata cache statistics.
func (m *Cache) Stats() Stats {
	s := m.st
	s.Stats = m.cs
	return s
}

// Len returns the number of resident blocks.
func (m *Cache) Len() int {
	n := 0
	for i := range m.lines {
		if m.lines[i].valid {
			n++
		}
	}
	return n
}
