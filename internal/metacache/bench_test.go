package metacache

import (
	"testing"

	"soteria/internal/config"
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
