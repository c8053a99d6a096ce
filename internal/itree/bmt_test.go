package itree

import (
	"testing"

	"soteria/internal/ctrenc"
	"soteria/internal/inject"
	"soteria/internal/telemetry"
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

// The on-chip state vouches for the last line written, however many
// updates went by without a Verify: every older line of the slot, a
// tampered copy of the newest and a line from another slot all fail.
func TestBMTRejectsAttackAfterUnverifiedUpdates(t *testing.T) {
	const leaves = 8
	store := newMapStore()
	b, err := NewBMT(ctrenc.MustNewEngine([]byte("bmt")), store, 0, leaves, 0)
	if err != nil {
		t.Fatal(err)
	}
	var history [][BlockSize]byte
	for v := byte(1); v <= 4; v++ {
		var l [BlockSize]byte
		l[0], l[63] = v, 0xA0|v
		if err := b.Update(2, &l); err != nil {
			t.Fatal(err)
		}
		history = append(history, l)
	}
	var other [BlockSize]byte
	other[5] = 9
	if err := b.Update(3, &other); err != nil {
		t.Fatal(err)
	}
	newest := history[len(history)-1]
	tampered := newest
	tampered[17] ^= 0x10
	for _, bad := range append(history[:len(history)-1], tampered, other) {
		store.m[2*BlockSize] = bad
		if _, err := b.Verify(2); err == nil {
			t.Fatalf("leaf 2 verifies %x after four unverified updates", bad[:2])
		}
	}
	store.m[2*BlockSize] = newest
	if got, err := b.Verify(2); err != nil || got != newest {
		t.Fatalf("newest line does not verify: %v", err)
	}
}

// powerCutStore cuts power inside the next WriteLine when armed, after
// applying the write (landed) or before it.
type powerCutStore struct {
	*mapStore
	armed, landed bool
}

func (s *powerCutStore) WriteLine(addr uint64, data *[BlockSize]byte) {
	if !s.armed {
		s.mapStore.WriteLine(addr, data)
		return
	}
	s.armed = false
	if s.landed {
		s.mapStore.WriteLine(addr, data)
	}
	panic(inject.PowerLoss{Boundary: 7})
}

// A power loss inside Update's line write leaves the on-chip state as it
// was: the leaf keeps verifying its previous line, books no MAC for the
// cut update, and refuses the new line should the write have landed.
func TestBMTPowerLossInsideUpdateKeepsPreviousLine(t *testing.T) {
	for _, landed := range []bool{false, true} {
		eng := ctrenc.MustNewEngine([]byte("bmt"))
		store := &powerCutStore{mapStore: newMapStore(), landed: landed}
		b, err := NewBMT(eng, store, 0, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		eng.AttachTelemetry(reg)
		var prev, next [BlockSize]byte
		prev[0], next[0] = 1, 2
		if err := b.Update(1, &prev); err != nil {
			t.Fatal(err)
		}
		store.armed = true
		func() {
			defer func() {
				if _, ok := recover().(inject.PowerLoss); !ok {
					t.Fatal("Update did not unwind with the power loss")
				}
			}()
			_ = b.Update(1, &next)
		}()
		if got := reg.Counter("ctrenc_mac_shadow_tree_total").Value(); got != 1 {
			t.Fatalf("landed=%t: %d MACs booked, want 1 (the completed update)", landed, got)
		}
		got, err := b.Verify(1)
		switch {
		case landed && err == nil:
			t.Fatalf("landed=%t: the cut update's line verifies", landed)
		case !landed && (err != nil || got != prev):
			t.Fatalf("landed=%t: previous line does not verify: %v", landed, err)
		}
		store.m[BlockSize] = prev
		if got, err := b.Verify(1); err != nil || got != prev {
			t.Fatalf("landed=%t: previous line does not verify once restored: %v", landed, err)
		}
	}
}

// The shadow-tree MAC count is the model's: one per Update and one per
// Verify that reads its leaf, however the host reaches the verdict.
func TestBMTBooksOneMACPerUpdateAndVerify(t *testing.T) {
	const leaves = 16
	eng := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	b, err := NewBMT(eng, store, 0, leaves, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	eng.AttachTelemetry(reg)
	b.AttachTelemetry(reg)
	var l [BlockSize]byte
	for i := 0; i < 200; i++ {
		idx := uint64(i*7) % leaves
		switch i % 5 {
		case 0, 1:
			l[0], l[1] = byte(i), byte(i>>8)
			if err := b.Update(idx, &l); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := b.Verify(idx); err != nil {
				t.Fatal(err)
			}
		case 3:
			// A tampered leaf takes the hashing fallback and fails.
			good := store.m[idx*BlockSize]
			bad := good
			bad[9] ^= 1
			store.m[idx*BlockSize] = bad
			if _, err := b.Verify(idx); err == nil {
				t.Fatalf("tampered leaf %d verifies", idx)
			}
			store.m[idx*BlockSize] = good
		case 4:
			if err := b.VerifyAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	macs, updates, verifies := count("ctrenc_mac_shadow_tree_total"), count("bmt_updates_total"), count("bmt_verifies_total")
	if updates == 0 || verifies == 0 || macs != updates+verifies {
		t.Fatalf("%d shadow-tree MACs booked, want %d updates + %d verifies", macs, updates, verifies)
	}
	// A leaf the store cannot read counts as a verify but is never hashed.
	store.poison[0] = true
	if _, err := b.Verify(0); err == nil {
		t.Fatal("unreadable leaf verifies")
	}
	if got := count("ctrenc_mac_shadow_tree_total"); got != macs {
		t.Fatalf("an unreadable leaf booked %d MACs", got-macs)
	}
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
