package metacache

import (
	"testing"
	"unsafe"

	"soteria/internal/config"
)

func newMC(t *testing.T) *Cache {
	t.Helper()
	// 2 sets x 2 ways.
	m, err := New(config.CacheConfig{SizeBytes: 256, Ways: 2, LatencyCycles: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestKindStrings(t *testing.T) {
	if KindCounter.String() != "counter" || KindNode.String() != "node" ||
		KindMAC.String() != "mac" || Kind(0).String() != "?" {
		t.Fatal("kind strings wrong")
	}
}

func TestEvictionHistogramOnlyCountsDirtyTreeBlocks(t *testing.T) {
	m := newMC(t)
	// Fill set 0 (addresses stride = sets*64 = 128).
	m.Insert(0, Block{Kind: KindCounter, Level: 1}, true)
	m.Insert(128, Block{Kind: KindNode, Level: 2}, true)
	// Evict the counter block (LRU).
	if _, _, has := m.Insert(256, Block{Kind: KindMAC}, false); !has {
		t.Fatal("no eviction")
	}
	st := m.Stats()
	if st.DirtyTreeEvictions != 1 || st.EvictionsByLevel[1] != 1 {
		t.Fatalf("histogram %v, dirty %d", st.EvictionsByLevel, st.DirtyTreeEvictions)
	}
	// Evict the node (dirty, level 2).
	m.Insert(384, Block{Kind: KindMAC}, false)
	if m.Stats().EvictionsByLevel[2] != 1 {
		t.Fatal("level-2 eviction not histogrammed")
	}
	// Clean MAC eviction must not count.
	m.Insert(512, Block{Kind: KindMAC}, false)
	if m.Stats().DirtyTreeEvictions != 2 {
		t.Fatal("MAC eviction counted as tree eviction")
	}
}

func TestSlotOfMatchesSetWay(t *testing.T) {
	m := newMC(t)
	m.Insert(64, Block{Kind: KindCounter, Level: 1}, false) // set 1
	slot := m.SlotOf(64)
	if slot < 0 || slot >= m.Slots() {
		t.Fatalf("slot %d out of range %d", slot, m.Slots())
	}
	// Set 1, first way -> slot = set*ways + way = 2.
	if slot != 2 {
		t.Fatalf("slot = %d, want 2", slot)
	}
	if m.SlotOf(192) != -1 {
		t.Fatal("absent block has a slot")
	}
	if m.Slots() != 4 {
		t.Fatalf("slots = %d", m.Slots())
	}
}

func TestDirtyLifecycle(t *testing.T) {
	m := newMC(t)
	m.Insert(0, Block{Kind: KindCounter, Level: 1, UpdatesPerSlot: [64]uint32{}}, false)
	if len(m.DirtyLines()) != 0 {
		t.Fatal("clean insert is dirty")
	}
	m.MarkDirty(m.SlotOf(0))
	if !m.IsDirty(0) || len(m.DirtyLines()) != 1 {
		t.Fatal("dirty not listed")
	}
	m.CleanLine(0)
	if m.IsDirty(0) || len(m.DirtyLines()) != 0 {
		t.Fatal("clean failed")
	}
	b, ok := m.Peek(0)
	if !ok || b.Kind != KindCounter {
		t.Fatal("peek failed")
	}
	m.DropAll()
	if _, ok := m.Peek(0); ok {
		t.Fatal("DropAll left residents")
	}
}

func TestInvalidate(t *testing.T) {
	m := newMC(t)
	m.Insert(0, Block{Kind: KindNode, Level: 3}, true)
	if !m.Invalidate(0) {
		t.Fatal("invalidate missed a resident block")
	}
	if _, ok := m.Lookup(0); ok {
		t.Fatal("still resident")
	}
	if m.Invalidate(0) {
		t.Fatal("invalidated an absent block")
	}
}

// TestBlockStays344Bytes pins the way payload: kind, level and index (24
// bytes), the stored line (64) and the per-slot update counts (256). A
// decoded copy of the line beside it would grow every way the set probe
// strides over.
func TestBlockStays344Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n != 344 {
		t.Fatalf("Block is %d bytes, want 344", n)
	}
}
