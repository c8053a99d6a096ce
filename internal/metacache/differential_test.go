package metacache

import (
	"fmt"
	"math/rand"
	"testing"

	"soteria/internal/config"
	"soteria/internal/telemetry"
)

// refLine is one line of the reference model.
type refLine struct {
	valid bool
	dirty bool
	addr  uint64
	lru   uint64
	block Block
}

// refCache is a deliberately naive re-implementation of the metadata
// cache's contract: plain per-set slices, linear scans, explicit LRU
// timestamps. It mirrors the documented semantics of internal/cache
// (true-LRU, write-back, replace-in-place on re-insert) without sharing
// any code with it, so the differential test below can catch a divergence
// in either implementation.
type refCache struct {
	sets     [][]refLine
	setMask  uint64
	lineBits uint
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
	base := addr &^ (config.BlockSize - 1)
	for i, l := range r.set(addr) {
		if l.valid && l.addr == base {
			return &r.set(addr)[i]
		}
	}
	return nil
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

func (r *refCache) insert(addr uint64, b Block, dirty bool) (ev Evicted, hasEvict bool) {
	r.tick++
	base := addr &^ (config.BlockSize - 1)
	if l := r.find(addr); l != nil {
		l.block = b
		l.dirty = l.dirty || dirty
		l.lru = r.tick
		return Evicted{}, false
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
		victim = 0
		for i := 1; i < len(ws); i++ {
			if ws[i].lru < ws[victim].lru {
				victim = i
			}
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
	ws[victim] = refLine{valid: true, dirty: dirty, addr: base, lru: r.tick, block: b}
	return ev, hasEvict
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

func (r *refCache) len() int {
	n := 0
	for s := range r.sets {
		for w := range r.sets[s] {
			if r.sets[s][w].valid {
				n++
			}
		}
	}
	return n
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

// TestMetacacheDifferential drives the real metadata cache and the naive
// reference model through the same seeded randomized access sequence and
// demands identical observable behaviour at every step: hit/miss results,
// eviction victims (address, dirty bit, payload kind and level) as
// predicted by Victim and as reported by the insertion, residency, the
// legacy statistics, and the telemetry counters. Insertions alternate
// between Insert and Claim with the payload filled in place.
func TestMetacacheDifferential(t *testing.T) {
	const (
		levels = 5
		ops    = 10_000
	)
	cfg := config.CacheConfig{SizeBytes: 64 * config.BlockSize, Ways: 4, LatencyCycles: 1}
	for _, seed := range []int64{1, 2, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m, err := New(cfg, levels)
			if err != nil {
				t.Fatal(err)
			}
			reg := telemetry.NewRegistry()
			m.AttachTelemetry(reg)
			ref := newRefCache(cfg)
			rng := rand.New(rand.NewSource(seed))

			// 4x the line capacity so sets stay under eviction pressure.
			addr := func() uint64 {
				return uint64(rng.Intn(4*64)) * config.BlockSize
			}

			for i := 0; i < ops; i++ {
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
					b := randomBlock(rng, levels, uint64(i))
					dirty := rng.Intn(2) == 0
					pv, phas := m.Victim(a)
					var (
						ev  Evicted
						has bool
					)
					if rng.Intn(2) == 0 {
						ev, has = m.Insert(a, b, dirty)
					} else {
						var p *Block
						p, ev, has = m.Claim(a, dirty)
						if *p != (Block{}) {
							t.Fatalf("op %d: Claim(%#x) returned a way holding %+v, want it zeroed", i, a, *p)
						}
						*p = b
					}
					want, wHas := ref.insert(a, b, dirty)
					if has != wHas || phas != wHas {
						t.Fatalf("op %d: Insert(%#x) evicted=%v (Victim predicted %v), reference says %v", i, a, has, phas, wHas)
					}
					if has && (ev != want || pv != want) {
						t.Fatalf("op %d: Insert(%#x) evicted %+v (Victim predicted %+v), reference %+v", i, a, ev, pv, want)
					}
				case op < 85: // mark dirty
					a := addr()
					if got, want := m.MarkDirty(a), ref.markDirty(a); got != want {
						t.Fatalf("op %d: MarkDirty(%#x) = %v, reference %v", i, a, got, want)
					}
				case op < 92: // clean (counts a writeback in telemetry)
					a := addr()
					m.CleanLine(a)
					ref.cleanLine(a)
				case op < 99: // invalidate
					a := addr()
					_, got := m.Invalidate(a)
					if want := ref.invalidate(a); got != want {
						t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", i, a, got, want)
					}
				default: // rare power loss
					got := len(m.DropAll())
					if want := ref.dropAll(); got != want {
						t.Fatalf("op %d: DropAll dropped %d dirty lines, reference %d", i, got, want)
					}
				}
				if m.Len() != ref.len() {
					t.Fatalf("op %d: residency %d != reference %d", i, m.Len(), ref.len())
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
}
