package itree

import (
	"errors"
	"testing"

	"soteria/internal/ctrenc"
)

// countingStore counts the line reads that reach its backing store.
type countingStore struct {
	*mapStore
	reads int
}

func (s *countingStore) ReadLine(addr uint64) ([BlockSize]byte, error) {
	s.reads++
	return s.mapStore.ReadLine(addr)
}

// An attacker who replays an old leaf together with the level-0 node that
// vouched for it must not get the pair laundered into the root by an
// honest update to a sibling leaf: the update has to build on the node the
// BMT last wrote, not on what the store now holds.
func TestBMTUpdateDoesNotLaunderReplayedNode(t *testing.T) {
	const leaves = 64
	const treeBase = uint64(leaves * BlockSize)
	e := ctrenc.MustNewEngine([]byte("bmt"))
	var v1, v2, sib [BlockSize]byte
	v1[0], v2[0], sib[0] = 1, 2, 3

	// history writes v1 then v2 to leaf 0 and returns the tree, its store
	// and the (leaf, level-0 node) pair as they stood after v1.
	history := func(t *testing.T) (*BMT, *mapStore, [BlockSize]byte, [BlockSize]byte) {
		t.Helper()
		store := newMapStore()
		b, err := NewBMT(e, store, 0, leaves, treeBase)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Update(0, &v1); err != nil {
			t.Fatal(err)
		}
		oldLeaf, oldNode := store.m[0], store.m[treeBase]
		if err := b.Update(0, &v2); err != nil {
			t.Fatal(err)
		}
		return b, store, oldLeaf, oldNode
	}

	t.Run("live", func(t *testing.T) {
		b, store, oldLeaf, oldNode := history(t)
		store.m[0], store.m[treeBase] = oldLeaf, oldNode
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

	t.Run("before-attach", func(t *testing.T) {
		b, store, oldLeaf, oldNode := history(t)
		root := b.Root()
		store.m[0], store.m[treeBase] = oldLeaf, oldNode
		a, err := AttachBMT(e, store, 0, leaves, treeBase, root)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Update(1, &sib); !errors.Is(err, ErrUntrusted) {
			t.Fatalf("update across the replayed node: err = %v, want ErrUntrusted", err)
		}
		if a.Root() != root {
			t.Fatal("a refused update moved the root")
		}
		if _, err := a.Verify(0); err == nil {
			t.Fatal("replayed leaf verifies after attach")
		}
		// Leaves under other level-0 nodes are untouched by the replay.
		if err := a.Update(8, &sib); err != nil {
			t.Fatalf("update under an intact node: %v", err)
		}
		if got, err := a.Verify(8); err != nil || got != sib {
			t.Fatalf("leaf 8 after update: %v", err)
		}
	})
}

// AttachBMT reads every internal node exactly once, and a tree attached
// over an honest store behaves exactly like the one that wrote it.
func TestBMTAttachMatchesLiveTree(t *testing.T) {
	const leaves = 100
	const treeBase = uint64(leaves * BlockSize)
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := &countingStore{mapStore: newMapStore()}
	b, err := NewBMT(e, store, 0, leaves, treeBase)
	if err != nil {
		t.Fatal(err)
	}
	var l [BlockSize]byte
	for i := uint64(0); i < leaves; i += 7 {
		l[0] = byte(i)
		if err := b.Update(i, &l); err != nil {
			t.Fatal(err)
		}
	}
	store.reads = 0
	a, err := AttachBMT(e, store, 0, leaves, treeBase, b.Root())
	if err != nil {
		t.Fatal(err)
	}
	if want := int(BMTStorageLines(leaves)); store.reads != want {
		t.Fatalf("attach read %d lines, want one per node (%d)", store.reads, want)
	}
	store.reads = 0
	for i := uint64(0); i < leaves; i += 3 {
		l[0] = ^byte(i)
		if err := b.Update(i, &l); err != nil {
			t.Fatal(err)
		}
		if err := a.Update(i, &l); err != nil {
			t.Fatal(err)
		}
		if a.Root() != b.Root() {
			t.Fatalf("roots diverged after updating leaf %d", i)
		}
	}
	if store.reads != 0 {
		t.Fatalf("updates read %d lines from the store", store.reads)
	}
	if err := a.VerifyAll(); err != nil {
		t.Fatal(err)
	}
}

// An unreadable node fails the updates whose path crosses it, with the
// error an unreadable node has always produced, and nothing else.
func TestBMTAttachUnreadableNode(t *testing.T) {
	const leaves = 64
	const treeBase = uint64(leaves * BlockSize)
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	b, err := NewBMT(e, store, 0, leaves, treeBase)
	if err != nil {
		t.Fatal(err)
	}
	store.poison[treeBase+2*BlockSize] = true // level 0, node 2: leaves 16..23
	a, err := AttachBMT(e, store, 0, leaves, treeBase, b.Root())
	if err != nil {
		t.Fatal(err)
	}
	var l [BlockSize]byte
	err = a.Update(17, &l)
	if !errors.Is(err, ErrUntrusted) || err.Error() != "itree: BMT level 0 node 2 unreadable: "+ErrUntrusted.Error() {
		t.Fatalf("update across an unreadable node: %v", err)
	}
	if err := a.Update(24, &l); err != nil {
		t.Fatalf("update elsewhere: %v", err)
	}
}
