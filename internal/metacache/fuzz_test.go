package metacache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"soteria/internal/config"
	"soteria/internal/telemetry"
)

// refLine is one line of the reference model.
type refLine struct {
	valid bool
	dirty bool
	pins  int
	addr  uint64
	lru   uint64
	block Block
}

// refCache is a deliberately naive re-implementation of the metadata
// cache's contract: plain per-set slices, linear scans, explicit LRU
// timestamps. It mirrors the documented semantics of internal/cache
// (true-LRU with free ways first, pinned ways never chosen, write-back,
// replace-in-place on re-insert, one slot per (set, way)) without sharing
// any code with it, so
// the fuzz target below can catch a divergence in either implementation.
type refCache struct {
	sets     [][]refLine
	setMask  uint64
	lineBits uint
	ways     int
	tick     uint64

	hits, misses, evictions, writebacks uint64
	dirtyTreeEvictions                  uint64
	invalidates, dropAlls               uint64
	hitsByLevel, dirtyEvByLevel         map[int]uint64
}

func newRefCache(cfg config.CacheConfig) *refCache {
	nsets := cfg.Sets()
	r := &refCache{
		sets:           make([][]refLine, nsets),
		setMask:        uint64(nsets - 1),
		ways:           cfg.Ways,
		hitsByLevel:    map[int]uint64{},
		dirtyEvByLevel: map[int]uint64{},
	}
	for s := config.BlockSize; s > 1; s >>= 1 {
		r.lineBits++
	}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) set(addr uint64) []refLine {
	return r.sets[(addr>>r.lineBits)&r.setMask]
}

func (r *refCache) find(addr uint64) *refLine {
	if s, w := r.slot(addr); w >= 0 {
		return &r.sets[s][w]
	}
	return nil
}

// slot returns addr's set and the way holding it, or -1.
func (r *refCache) slot(addr uint64) (set uint64, way int) {
	set = (addr >> r.lineBits) & r.setMask
	base := addr &^ (config.BlockSize - 1)
	for i, l := range r.sets[set] {
		if l.valid && l.addr == base {
			return set, i
		}
	}
	return set, -1
}

func (r *refCache) slotOf(addr uint64) int {
	if s, w := r.slot(addr); w >= 0 {
		return int(s)*r.ways + w
	}
	return -1
}

func (r *refCache) isDirty(addr uint64) bool {
	l := r.find(addr)
	return l != nil && l.dirty
}

func (r *refCache) pin(addr uint64) bool {
	l := r.find(addr)
	if l != nil {
		l.pins++
	}
	return l != nil
}

func (r *refCache) unpin(addr uint64) {
	if l := r.find(addr); l != nil && l.pins > 0 {
		l.pins--
	}
}

func (r *refCache) lookup(addr uint64) (Block, bool) {
	if l := r.find(addr); l != nil {
		r.tick++
		l.lru = r.tick
		r.hits++
		r.hitsByLevel[l.block.Level]++
		return l.block, true
	}
	r.misses++
	return Block{}, false
}

// insert reports the line it evicted, if any, and ok=false (changing
// nothing) when addr is not resident and every way of its set is pinned.
func (r *refCache) insert(addr uint64, b Block, dirty bool) (ev Evicted, hasEvict, ok bool) {
	base := addr &^ (config.BlockSize - 1)
	if l := r.find(addr); l != nil {
		r.tick++
		l.block = b
		l.dirty = l.dirty || dirty
		l.lru = r.tick
		return Evicted{}, false, true
	}
	ws := r.set(addr)
	victim := -1
	for i := range ws {
		if !ws[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		for i := range ws {
			if ws[i].pins == 0 && (victim == -1 || ws[i].lru < ws[victim].lru) {
				victim = i
			}
		}
		if victim == -1 {
			return Evicted{}, false, false
		}
		v := &ws[victim]
		ev, hasEvict = Evicted{Addr: v.addr, Dirty: v.dirty, Kind: v.block.Kind, Level: v.block.Level}, true
		r.evictions++
		if ev.Dirty {
			r.writebacks++
		}
		if ev.Dirty && ws[victim].block.Kind != KindMAC {
			r.dirtyTreeEvictions++
			r.dirtyEvByLevel[ws[victim].block.Level]++
		}
	}
	r.tick++
	ws[victim] = refLine{valid: true, dirty: dirty, addr: base, lru: r.tick, block: b}
	return ev, hasEvict, true
}

func (r *refCache) markDirty(addr uint64) bool {
	if l := r.find(addr); l != nil {
		l.dirty = true
		return true
	}
	return false
}

func (r *refCache) cleanLine(addr uint64) {
	if l := r.find(addr); l != nil {
		l.dirty = false
	}
}

func (r *refCache) invalidate(addr uint64) bool {
	if l := r.find(addr); l != nil {
		*l = refLine{}
		r.invalidates++
		return true
	}
	return false
}

func (r *refCache) dropAll() (dirty int) {
	for s := range r.sets {
		for w := range r.sets[s] {
			if r.sets[s][w].valid && r.sets[s][w].dirty {
				dirty++
			}
			r.sets[s][w] = refLine{}
		}
	}
	r.dropAlls++
	return dirty
}

// randomBlock builds a metadata block whose kind/level distribution covers
// MAC lines (never counted as dirty tree evictions) and tree levels
// 1..levels.
func randomBlock(rng *rand.Rand, levels int, index uint64) Block {
	switch rng.Intn(4) {
	case 0:
		return Block{Kind: KindMAC, Level: 0, Index: index}
	case 1:
		return Block{Kind: KindCounter, Level: 1, Index: index}
	default:
		return Block{Kind: KindNode, Level: 2 + rng.Intn(levels-1), Index: index}
	}
}

// FuzzMetacacheMatchesReference drives the metadata cache — and through
// it the internal/cache core — and the naive reference model through the
// same seeded random access sequence, at an associativity of 1, 2, 4 or 8
// ways, and demands identical observable behaviour at every step:
// hit/miss results, the slot and eviction victim (address, dirty bit,
// payload kind and level) Place names, the victim the insertion reports,
// and — every 32 operations — the residency, dirty bit and shadow-table
// slot of every address; then the statistics and telemetry counters at
// the end. Every insertion is preceded by a Place, which must change no
// statistic or LRU stamp, and is an Insert, a Claim or a ClaimAt into
// Place's slot, the last two with the payload filled in place; all three
// must take the way Place named. Pin/Unpin calls leave some sets with no
// way to give, where Place names none and the insertion is refused.
func FuzzMetacacheMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 42} {
		f.Add(seed, uint16(10_000), uint8(2)) // 4 ways
	}
	f.Add(int64(3), uint16(10_000), uint8(1)) // 2 ways: sets fill with pins
	f.Add(int64(4), uint16(10_000), uint8(0)) // direct-mapped
	f.Fuzz(func(t *testing.T, seed int64, ops uint16, waySel uint8) {
		const (
			levels = 5
			lines  = 64
		)
		cfg := config.CacheConfig{SizeBytes: lines * config.BlockSize, Ways: 1 << (waySel % 4), LatencyCycles: 1}
		m, err := New(cfg, levels)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		m.AttachTelemetry(reg)
		ref := newRefCache(cfg)
		rng := rand.New(rand.NewSource(seed))

		// 4x the line capacity so sets stay under eviction pressure.
		const universe = 4 * lines
		addr := func() uint64 {
			return uint64(rng.Intn(universe)) * config.BlockSize
		}
		// lastIns is the address most recently inserted, which Pin takes;
		// held lists pins not yet released, by address and slot.
		// Invalidate and DropAll drop a line's pins, and their holders
		// with them: a slot names its line only while it is resident.
		type pin struct {
			addr uint64
			slot int
		}
		var (
			lastIns uint64
			held    []pin
		)

		for i := 0; i < int(ops); i++ {
			switch op := rng.Intn(100); {
			case op < 40: // lookup
				a := addr()
				gb, gok := m.Lookup(a)
				wb, wok := ref.lookup(a)
				if gok != wok {
					t.Fatalf("op %d: Lookup(%#x) hit=%v, reference says %v", i, a, gok, wok)
				}
				if gok && (gb.Kind != wb.Kind || gb.Level != wb.Level || gb.Index != wb.Index) {
					t.Fatalf("op %d: Lookup(%#x) payload %+v != reference %+v", i, a, gb, wb)
				}
			case op < 75: // insert
				a := addr()
				lastIns = a
				b := randomBlock(rng, levels, uint64(i))
				dirty := rng.Intn(2) == 0
				// Place names the way and victim without touching LRU
				// state or any count; the reference model catches a stamp.
				before := m.Stats()
				slot, resident, pv, phas := m.Place(a)
				if after := m.Stats(); after.Stats != before.Stats || after.DirtyTreeEvictions != before.DirtyTreeEvictions {
					t.Fatalf("op %d: Place(%#x) changed stats %+v -> %+v", i, a, before.Stats, after.Stats)
				}
				if want := ref.slotOf(a); resident != (want >= 0) || resident && slot != want {
					t.Fatalf("op %d: Place(%#x) = slot %d resident=%v, reference slot %d", i, a, slot, resident, want)
				}
				var (
					p   *Block
					ev  Evicted
					has bool
				)
				switch rng.Intn(3) {
				case 0:
					p, ev, has = m.Insert(a, b, dirty)
				case 1:
					p, ev, has = m.Claim(a, dirty)
				default:
					if slot >= 0 {
						p, ev, has = m.ClaimAt(slot, a, dirty)
					}
				}
				if p != nil && p != m.At(slot) {
					t.Fatalf("op %d: Insert(%#x) took a way other than Place's slot %d", i, a, slot)
				}
				if p != nil && *p != b {
					if *p != (Block{}) {
						t.Fatalf("op %d: Claim(%#x) returned a way holding %+v, want it zeroed", i, a, *p)
					}
					*p = b
				}
				want, wHas, wOK := ref.insert(a, b, dirty)
				if (p != nil) != wOK || (slot >= 0) != wOK {
					t.Fatalf("op %d: Insert(%#x) found a way=%v (Place slot %d), reference says %v", i, a, p != nil, slot, wOK)
				}
				if has != wHas || phas != wHas {
					t.Fatalf("op %d: Insert(%#x) evicted=%v (Place predicted %v), reference says %v", i, a, has, phas, wHas)
				}
				if has && (ev != want || pv != want) {
					t.Fatalf("op %d: Insert(%#x) evicted %+v (Place predicted %+v), reference %+v", i, a, ev, pv, want)
				}
			case op < 83: // mark dirty
				a := addr()
				slot := m.SlotOf(a)
				if slot >= 0 {
					m.MarkDirty(slot)
				}
				if got, want := slot >= 0, ref.markDirty(a); got != want {
					t.Fatalf("op %d: MarkDirty(%#x) found resident=%v, reference %v", i, a, got, want)
				}
			case op < 87: // clean (counts a writeback in telemetry)
				a := addr()
				m.CleanLine(a)
				ref.cleanLine(a)
			case op < 92: // pin the last insertion (pins nest)
				slot := m.SlotOf(lastIns)
				if got, want := slot >= 0, ref.pin(lastIns); got != want {
					t.Fatalf("op %d: Pin(%#x) found resident=%v, reference %v", i, lastIns, got, want)
				}
				if slot >= 0 {
					m.Pin(slot)
					held = append(held, pin{lastIns, slot})
				}
			case op < 94: // release a pin taken earlier
				if len(held) == 0 {
					continue
				}
				j := rng.Intn(len(held))
				p := held[j]
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
				m.Unpin(p.slot)
				ref.unpin(p.addr)
			case op < 99: // invalidate
				a := addr()
				if got, want := m.Invalidate(a), ref.invalidate(a); got != want {
					t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", i, a, got, want)
				}
				held = slices.DeleteFunc(held, func(p pin) bool { return p.addr == a })
			default: // rare power loss
				got := len(m.DirtyLines())
				m.DropAll()
				held = held[:0]
				if want := ref.dropAll(); got != want {
					t.Fatalf("op %d: DropAll dropped %d dirty lines, reference %d", i, got, want)
				}
			}
			if i%32 != 0 && i != int(ops)-1 {
				continue
			}
			for a := uint64(0); a < universe*config.BlockSize; a += config.BlockSize {
				_, got := m.Peek(a)
				if want := ref.find(a) != nil; got != want {
					t.Fatalf("op %d: %#x resident=%v, reference %v", i, a, got, want)
				}
				if got, want := m.IsDirty(a), ref.isDirty(a); got != want {
					t.Fatalf("op %d: IsDirty(%#x) = %v, reference %v", i, a, got, want)
				}
				if got, want := m.SlotOf(a), ref.slotOf(a); got != want {
					t.Fatalf("op %d: SlotOf(%#x) = %d, reference %d", i, a, got, want)
				}
			}
		}

		st := m.Stats()
		stChecks := []struct {
			name      string
			got, want uint64
		}{
			{"hits", st.Hits, ref.hits},
			{"misses", st.Misses, ref.misses},
			{"evictions", st.Evictions, ref.evictions},
			{"writebacks", st.Writebacks, ref.writebacks},
			{"dirty tree evictions", st.DirtyTreeEvictions, ref.dirtyTreeEvictions},
		}
		for _, c := range stChecks {
			if c.got != c.want {
				t.Errorf("Stats %s = %d, reference %d", c.name, c.got, c.want)
			}
		}
		for l := 0; l <= levels; l++ {
			if got, want := st.EvictionsByLevel[l], ref.dirtyEvByLevel[l]; got != want {
				t.Errorf("EvictionsByLevel[%d] = %d, reference %d", l, got, want)
			}
		}

		snap := reg.Snapshot()
		telChecks := map[string]uint64{
			"metacache_hits_total":                 ref.hits,
			"metacache_misses_total":               ref.misses,
			"metacache_evictions_total":            ref.evictions,
			"metacache_dirty_tree_evictions_total": ref.dirtyTreeEvictions,
			"metacache_invalidates_total":          ref.invalidates,
			"metacache_dropall_total":              ref.dropAlls,
		}
		for l := 0; l <= levels; l++ {
			telChecks[fmt.Sprintf("metacache_hits_level_%d_total", l)] = ref.hitsByLevel[l]
			telChecks[fmt.Sprintf("metacache_dirty_evictions_level_%d_total", l)] = ref.dirtyEvByLevel[l]
		}
		for name, want := range telChecks {
			if got := snap.Counters[name]; got != want {
				t.Errorf("telemetry %s = %d, reference %d", name, got, want)
			}
		}
	})
}
