package itree

import (
	"errors"
	"testing"
	"testing/quick"

	"soteria/internal/ctrenc"
)

func layout4MB(t *testing.T, depths []int) *Layout {
	t.Helper()
	l, err := NewLayout(Params{
		DataBytes:     4 << 20,
		CounterArity:  64,
		TreeArity:     8,
		CloneDepths:   depths,
		ShadowEntries: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestLayoutLevelSizes(t *testing.T) {
	l := layout4MB(t, nil)
	// 4 MB = 65536 data blocks -> 1024 counter blocks -> 128 -> 16 -> 2.
	want := []uint64{1024, 128, 16, 2}
	if len(l.Levels) != len(want) {
		t.Fatalf("levels = %d, want %d", len(l.Levels), len(want))
	}
	for i, n := range want {
		if l.Levels[i].Nodes != n {
			t.Fatalf("level %d nodes = %d, want %d", i+1, l.Levels[i].Nodes, n)
		}
	}
	if l.TopLevel() != 4 {
		t.Fatalf("top level %d", l.TopLevel())
	}
}

func TestLayoutStorageOverheadMatchesPaper(t *testing.T) {
	// §3.1: counters cost 1/64 (1.56%), first tree level 1/512 (0.19%),
	// all upper levels ~0.02%, total ~1.78% for a large memory.
	l, err := NewLayout(Params{DataBytes: 1 << 40, CounterArity: 64, TreeArity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ratio := l.OverheadRatio()
	if ratio < 0.0177 || ratio > 0.0180 {
		t.Fatalf("metadata overhead = %.4f%%, want ~1.78%%", ratio*100)
	}
	// Counter level alone is exactly 1/64.
	ctr := float64(l.Levels[0].Nodes*BlockSize) / float64(l.DataBytes)
	if ctr != 1.0/64 {
		t.Fatalf("counter overhead = %v, want 1/64", ctr)
	}
}

func TestLayoutRegionsDisjointAndLocatable(t *testing.T) {
	l := layout4MB(t, []int{2, 2, 3, 5})
	// Walk every region's first and last line; Locate must round-trip.
	type probe struct {
		addr uint64
		want Location
	}
	var probes []probe
	probes = append(probes,
		probe{0, Location{Kind: RegionData, Index: 0}},
		probe{l.DataBytes - BlockSize, Location{Kind: RegionData, Index: l.DataBlocks - 1}},
		probe{l.MACBase, Location{Kind: RegionDataMAC}},
	)
	for _, li := range l.Levels {
		probes = append(probes, probe{l.NodeAddr(li.Level, 0), Location{Kind: RegionMetadata, Level: li.Level}})
		probes = append(probes, probe{l.NodeAddr(li.Level, li.Nodes-1), Location{Kind: RegionMetadata, Level: li.Level, Index: li.Nodes - 1}})
		for c := range li.CloneBases {
			probes = append(probes, probe{l.CloneAddr(li.Level, 1, c), Location{Kind: RegionClone, Level: li.Level, Index: 1, Clone: c}})
		}
	}
	probes = append(probes, probe{l.ShadowEntryAddr(0), Location{Kind: RegionShadow}})
	// The range the shadow BMT's nodes once occupied stays reserved.
	probes = append(probes, probe{l.ShadowEntryAddr(l.ShadowEntries-1) + BlockSize, Location{Kind: RegionUnused}})
	for _, p := range probes {
		got := l.Locate(p.addr)
		if got.Kind != p.want.Kind || got.Level != p.want.Level || got.Index != p.want.Index || got.Clone != p.want.Clone {
			t.Fatalf("Locate(%#x) = %+v, want %+v", p.addr, got, p.want)
		}
	}
	if l.Total%BlockSize != 0 {
		t.Fatal("total size unaligned")
	}
}

func TestLayoutCloneDepthCap(t *testing.T) {
	_, err := NewLayout(Params{DataBytes: 1 << 20, CounterArity: 64, TreeArity: 8, CloneDepths: []int{6}})
	if err == nil {
		t.Fatal("depth 6 accepted; WPQ bound is 5")
	}
}

func TestParentChildRelations(t *testing.T) {
	l := layout4MB(t, nil)
	// Node (1, 13) has parent (2, 1) slot 5.
	pl, pi, slot, stored := l.Parent(1, 13)
	if pl != 2 || pi != 1 || slot != 5 || !stored {
		t.Fatalf("Parent(1,13) = (%d,%d,%d,%v)", pl, pi, slot, stored)
	}
	// Top level parents are the on-chip root.
	_, _, slot, stored = l.Parent(l.TopLevel(), 1)
	if stored || slot != 1 {
		t.Fatalf("top-level parent = slot %d stored %v", slot, stored)
	}
}

func TestCoverage(t *testing.T) {
	l := layout4MB(t, nil)
	s, e := l.CoverageOf(1, 0)
	if s != 0 || e != 64*BlockSize {
		t.Fatalf("counter block 0 covers [%d,%d)", s, e)
	}
	s, e = l.CoverageOf(2, 1)
	if s != 8*64*BlockSize || e != 2*8*64*BlockSize {
		t.Fatalf("L2 node 1 covers [%d,%d)", s, e)
	}
	// Whole top level covers everything.
	var total uint64
	for i := uint64(0); i < l.Levels[l.TopLevel()-1].Nodes; i++ {
		s, e := l.CoverageOf(l.TopLevel(), i)
		total += e - s
	}
	if total != l.DataBytes {
		t.Fatalf("top level covers %d of %d bytes", total, l.DataBytes)
	}
}

func TestDataMACAddrPacking(t *testing.T) {
	l := layout4MB(t, nil)
	a0, o0 := l.DataMACAddr(0)
	a7, o7 := l.DataMACAddr(7)
	a8, _ := l.DataMACAddr(8)
	if a0 != l.MACBase || o0 != 0 || a7 != a0 || o7 != 56 || a8 != a0+BlockSize {
		t.Fatalf("MAC packing wrong: %d/%d %d/%d %d", a0, o0, a7, o7, a8)
	}
}

func TestNodeSerializeRoundTrip(t *testing.T) {
	f := func(ctrs [8]uint64, mac uint64) bool {
		var n Node
		for i, c := range ctrs {
			n.Counters[i] = c & CounterMask
		}
		n.MAC = mac
		line := n.Serialize()
		back := DeserializeNode(&line)
		return back == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNodeMACBindsPosition(t *testing.T) {
	e := ctrenc.MustNewEngine([]byte("k"))
	var n Node
	n.Counters[0] = 9
	m := n.ContentMAC(e, 2, 5, 77)
	if n.ContentMAC(e, 3, 5, 77) == m {
		t.Fatal("node MAC ignores level")
	}
	if n.ContentMAC(e, 2, 6, 77) == m {
		t.Fatal("node MAC ignores index")
	}
	if n.ContentMAC(e, 2, 5, 78) == m {
		t.Fatal("node MAC ignores parent counter")
	}
	n.MAC = 123
	if n.ContentMAC(e, 2, 5, 77) != m {
		t.Fatal("stored MAC leaked into content MAC")
	}
}

func TestNodeIncrementWraps(t *testing.T) {
	var n Node
	n.Counters[3] = CounterMask
	n.Increment(3)
	if n.Counters[3] != 0 {
		t.Fatalf("counter did not wrap at %d bits", CounterBits)
	}
}

// mapStore is an in-memory LineStore with optional poisoned addresses.
type mapStore struct {
	m      map[uint64][BlockSize]byte
	poison map[uint64]bool
}

func newMapStore() *mapStore {
	return &mapStore{m: make(map[uint64][BlockSize]byte), poison: make(map[uint64]bool)}
}

func (s *mapStore) ReadLine(addr uint64) ([BlockSize]byte, error) {
	if s.poison[addr] {
		return [BlockSize]byte{}, errors.New("uncorrectable")
	}
	return s.m[addr], nil
}

func (s *mapStore) WriteLine(addr uint64, data *[BlockSize]byte) {
	delete(s.poison, addr)
	s.m[addr] = *data
}

func TestBMTUpdateVerify(t *testing.T) {
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	const leaves = 100
	b, err := NewBMT(e, store, 0, leaves, 64*leaves)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.VerifyAll(); err != nil {
		t.Fatalf("fresh tree fails verification: %v", err)
	}
	var l [BlockSize]byte
	l[0] = 0xAA
	if err := b.Update(42, &l); err != nil {
		t.Fatal(err)
	}
	got, err := b.Verify(42)
	if err != nil || got != l {
		t.Fatalf("verify after update: %v", err)
	}
	if err := b.VerifyAll(); err != nil {
		t.Fatalf("tree inconsistent after update: %v", err)
	}
}

func TestBMTDetectsLeafTamper(t *testing.T) {
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	b, err := NewBMT(e, store, 0, 64, 64*64)
	if err != nil {
		t.Fatal(err)
	}
	var l [BlockSize]byte
	l[5] = 7
	if err := b.Update(3, &l); err != nil {
		t.Fatal(err)
	}
	// Tamper directly in the store, bypassing Update.
	raw := store.m[3*64]
	raw[5] ^= 1
	store.m[3*64] = raw
	if _, err := b.Verify(3); err == nil {
		t.Fatal("leaf tamper not detected")
	}
}

func TestBMTDetectsNodeTamperAndReplay(t *testing.T) {
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	b, err := NewBMT(e, store, 0, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 [BlockSize]byte
	v1[0], v2[0] = 1, 2
	if err := b.Update(0, &v1); err != nil {
		t.Fatal(err)
	}
	oldLeaf := store.m[0]
	if err := b.Update(0, &v2); err != nil {
		t.Fatal(err)
	}
	// Replay the old leaf: the store holds no node to replay with it,
	// and the on-chip node vouches only for v2.
	store.m[0] = oldLeaf
	if _, err := b.Verify(0); err == nil {
		t.Fatal("replay of old leaf not detected by the on-chip nodes")
	}
}

func TestBMTSurfacesUncorrectable(t *testing.T) {
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	b, err := NewBMT(e, store, 0, 16, 16*64)
	if err != nil {
		t.Fatal(err)
	}
	store.poison[5*64] = true
	if _, err := b.Verify(5); err == nil {
		t.Fatal("uncorrectable leaf not surfaced")
	}
}

func TestBMTRootSurvivesRebuild(t *testing.T) {
	e := ctrenc.MustNewEngine([]byte("bmt"))
	store := newMapStore()
	b, _ := NewBMT(e, store, 0, 32, 32*64)
	var l [BlockSize]byte
	l[1] = 9
	_ = b.Update(7, &l)
	root := b.Root()
	// Rebuild from the same leaves must reproduce the root.
	b2, _ := NewBMT(e, store, 0, 32, 32*64)
	if b2.Root() != root {
		t.Fatal("rebuild changed the root")
	}
}

// Property: the clone-placement permutation is a bijection for every level
// and clone region (no two nodes share a clone slot).
func TestClonePermutationBijective(t *testing.T) {
	lay, err := NewLayout(Params{
		DataBytes:    2 << 20,
		CounterArity: 64,
		TreeArity:    8,
		CloneDepths:  []int{3, 3, 3, 3, 3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, li := range lay.Levels {
		for c := range li.CloneBases {
			seen := make(map[uint64]bool, li.Nodes)
			for i := uint64(0); i < li.Nodes; i++ {
				s := lay.CloneSlot(li.Level, i, c)
				if s >= li.Nodes {
					t.Fatalf("L%d clone %d slot %d out of range", li.Level, c, s)
				}
				if seen[s] {
					t.Fatalf("L%d clone %d slot collision at %d", li.Level, c, s)
				}
				seen[s] = true
			}
		}
	}
}

// Property: Locate is the exact inverse of every address generator, for
// both layout flavours.
func TestLocateRoundTripAllRegions(t *testing.T) {
	for _, clonesFirst := range []bool{false, true} {
		lay, err := NewLayout(Params{
			DataBytes:         2 << 20,
			CounterArity:      64,
			TreeArity:         8,
			CloneDepths:       []int{2, 2, 3},
			ShadowEntries:     128,
			RegionAlign:       32 << 10,
			CloneRegionsFirst: clonesFirst,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Data.
		for _, b := range []uint64{0, 1, lay.DataBlocks - 1} {
			loc := lay.Locate(lay.DataBase + b*BlockSize)
			if loc.Kind != RegionData || loc.Index != b {
				t.Fatalf("clonesFirst=%v: data block %d located as %+v", clonesFirst, b, loc)
			}
		}
		// Every node home and every clone, with permutation inversion.
		for _, li := range lay.Levels {
			for _, i := range []uint64{0, 1, li.Nodes / 2, li.Nodes - 1} {
				loc := lay.Locate(lay.NodeAddr(li.Level, i))
				if loc.Kind != RegionMetadata || loc.Level != li.Level || loc.Index != i {
					t.Fatalf("clonesFirst=%v: L%d[%d] home located as %+v", clonesFirst, li.Level, i, loc)
				}
				for c := range li.CloneBases {
					loc := lay.Locate(lay.CloneAddr(li.Level, i, c))
					if loc.Kind != RegionClone || loc.Level != li.Level || loc.Index != i || loc.Clone != c {
						t.Fatalf("clonesFirst=%v: L%d[%d] clone %d located as %+v", clonesFirst, li.Level, i, c, loc)
					}
				}
			}
		}
		// Shadow.
		loc := lay.Locate(lay.ShadowEntryAddr(5))
		if loc.Kind != RegionShadow || loc.Index != 5 {
			t.Fatalf("shadow located as %+v", loc)
		}
	}
}

// CloneRegionsFirst must put every clone below the data region and every
// home copy above it (the opposite-rank property faultsim relies on).
func TestCloneRegionsFirstSeparation(t *testing.T) {
	lay, err := NewLayout(Params{
		DataBytes:         2 << 20,
		CounterArity:      64,
		TreeArity:         8,
		CloneDepths:       []int{2, 2, 2},
		CloneRegionsFirst: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lay.DataBase == 0 {
		t.Fatal("data base not displaced by clone regions")
	}
	for _, li := range lay.Levels {
		for c := range li.CloneBases {
			if li.CloneBases[c]+li.Nodes*BlockSize > lay.DataBase {
				t.Fatalf("L%d clone region %d overlaps/exceeds data base", li.Level, c)
			}
		}
		if li.Base < lay.DataBase+lay.DataBytes {
			t.Fatalf("L%d home region below the data region", li.Level)
		}
	}
}
