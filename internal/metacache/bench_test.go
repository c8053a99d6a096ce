package metacache

import (
	"testing"

	"soteria/internal/config"
	"soteria/internal/nvm"
)

// BenchmarkLookupHit measures a warm hit in the shipped 4-way geometry:
// the set probe, the LRU refresh and the hit accounting, cycling over 16
// resident counter blocks.
func BenchmarkLookupHit(b *testing.B) {
	m, err := New(config.CacheConfig{SizeBytes: 64 * config.BlockSize, Ways: 4}, 4)
	if err != nil {
		b.Fatal(err)
	}
	var addrs [16]uint64
	for i := range addrs {
		addrs[i] = uint64(i) * config.BlockSize
		m.Insert(addrs[i], Block{Kind: KindCounter, Level: 1, Index: uint64(i)}, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, ok := m.Lookup(addrs[i%len(addrs)])
		if !ok {
			b.Fatal("warm lookup missed")
		}
		allocSink += blk.Index
	}
}

// BenchmarkPlaceClaim measures the cache side of a metadata miss in the
// shipped 4-way geometry: every address is new, so Place names the LRU way
// of a full set of clean blocks, ClaimAt evicts its occupant and zeroes the
// way, and the fill copies the stored line in.
func BenchmarkPlaceClaim(b *testing.B) {
	const lines = 64
	m, err := New(config.CacheConfig{SizeBytes: lines * config.BlockSize, Ways: 4}, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < lines; i++ {
		m.Insert(i*config.BlockSize, Block{Kind: KindCounter, Level: 1, Index: i}, false)
	}
	var line nvm.Line
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := uint64(lines + i)
		a := idx * config.BlockSize
		slot, resident, ev, evict := m.Place(a)
		if resident || !evict || ev.Dirty {
			b.Fatalf("Place(%#x) = slot %d resident=%v victim %+v %v, want a clean victim", a, slot, resident, ev, evict)
		}
		blk, _, _ := m.ClaimAt(slot, a, false)
		blk.Kind, blk.Level, blk.Index, blk.Line = KindCounter, 1, idx, line
		allocSink += ev.Addr
	}
}

// BenchmarkCacheProbe measures the set probe at the shipped metadata
// geometry (512 KB, 8 ways: 1024 sets, 8192 slots) with every slot
// resident and the probes spread over the whole tag array in a fixed
// permutation, so each one lands on a set the previous probes left cold in
// the host's L1. hit probes resident lines (the scan, the LRU refresh and
// the hit accounting); miss probes lines of the same sets that are not
// resident (a scan of all eight tags).
func BenchmarkCacheProbe(b *testing.B) {
	const slots = (512 << 10) / config.BlockSize
	for _, bc := range []struct {
		name string
		base uint64 // first line number probed
		hit  bool
	}{{"hit", 0, true}, {"miss", slots, false}} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := New(config.CacheConfig{SizeBytes: 512 << 10, Ways: 8}, 4)
			if err != nil {
				b.Fatal(err)
			}
			for i := uint64(0); i < slots; i++ {
				m.Insert(i*config.BlockSize, Block{Kind: KindCounter, Level: 1, Index: i}, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// An odd multiplier permutes the slots.
				line := bc.base + uint64(i)*2654435761%slots
				blk, ok := m.Lookup(line * config.BlockSize)
				if ok != bc.hit {
					b.Fatalf("probe of line %d: hit=%v, want %v", line, ok, bc.hit)
				}
				if ok {
					allocSink += blk.Index
				}
			}
		})
	}
}
