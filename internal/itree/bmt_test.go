package itree

import (
	"testing"

	"soteria/internal/ctrenc"
)

// leafOnlyStore fails the test on any access outside the leaf range: the
// BMT's internal nodes are on-chip state, never store traffic.
type leafOnlyStore struct {
	*mapStore
	t         *testing.T
	base, end uint64
}

func (s *leafOnlyStore) check(op string, addr uint64) {
	if addr < s.base || addr >= s.end {
		s.t.Fatalf("%s of %#x, outside the leaf range [%#x, %#x)", op, addr, s.base, s.end)
	}
}

func (s *leafOnlyStore) ReadLine(addr uint64) ([BlockSize]byte, error) {
	s.check("read", addr)
	return s.mapStore.ReadLine(addr)
}

func (s *leafOnlyStore) WriteLine(addr uint64, data *[BlockSize]byte) {
	s.check("write", addr)
	s.mapStore.WriteLine(addr, data)
}

func TestBMTStoreTrafficIsLeavesOnly(t *testing.T) {
	const leaves = 100
	const leafBase = 16 * BlockSize
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := &leafOnlyStore{mapStore: newMapStore(), t: t, base: leafBase, end: leafBase + leaves*BlockSize}
	b, err := NewBMT(e, store, leafBase, leaves, leafBase+leaves*BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	var l [BlockSize]byte
	for i := uint64(0); i < leaves; i += 7 {
		l[0] = byte(i)
		if err := b.Update(i, &l); err != nil {
			t.Fatal(err)
		}
		if got, err := b.Verify(i); err != nil || got != l {
			t.Fatalf("leaf %d after update: %v", i, err)
		}
	}
	if err := b.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// An attacker who replays an old leaf must not get it laundered into the
// root by an honest update to a sibling leaf: the update builds on the
// on-chip node, not on anything the store now holds.
func TestBMTUpdateDoesNotLaunderReplayedNode(t *testing.T) {
	const leaves = 64
	e := ctrenc.MustNewEngine([]byte("bmt"))
	var v1, v2, sib [BlockSize]byte
	v1[0], v2[0], sib[0] = 1, 2, 3

	t.Run("live", func(t *testing.T) {
		store := newMapStore()
		b, err := NewBMT(e, store, 0, leaves, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Update(0, &v1); err != nil {
			t.Fatal(err)
		}
		oldLeaf := store.m[0]
		if err := b.Update(0, &v2); err != nil {
			t.Fatal(err)
		}
		store.m[0] = oldLeaf
		if err := b.Update(1, &sib); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Verify(0); err == nil {
			t.Fatal("replayed leaf verifies against the root after a sibling update")
		}
		if got, err := b.Verify(1); err != nil || got != sib {
			t.Fatalf("honest sibling update does not verify: %v", err)
		}
	})
}

// sliceStore is a flat line store for the benchmarks, so they time the
// BMT rather than map hashing.
type sliceStore [][BlockSize]byte

func (s sliceStore) ReadLine(addr uint64) ([BlockSize]byte, error) {
	return s[addr/BlockSize], nil
}

func (s sliceStore) WriteLine(addr uint64, data *[BlockSize]byte) { s[addr/BlockSize] = *data }

// benchBMT returns a BMT over 8192 leaves, the shadow table of the
// default 512 KB metadata cache.
func benchBMT(b *testing.B) *BMT {
	const leaves = 8192
	t, err := NewBMT(ctrenc.MustNewEngine([]byte("bmt-bench")), make(sliceStore, leaves), 0, leaves, 0)
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func BenchmarkBMTUpdate(b *testing.B) {
	t := benchBMT(b)
	var l [BlockSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l[0] = byte(i)
		if err := t.Update(uint64(i)*2654435761%8192, &l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBMTVerify(b *testing.B) {
	t := benchBMT(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.Verify(uint64(i) * 2654435761 % 8192); err != nil {
			b.Fatal(err)
		}
	}
}
