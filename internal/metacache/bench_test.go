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
