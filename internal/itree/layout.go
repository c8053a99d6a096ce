// Package itree implements the integrity-protection structures of the
// secure memory controller: the physical layout of security metadata in
// NVM (encryption counters, ToC tree levels, data MACs, the Anubis shadow
// region and Soteria's clone regions), the SGX-style Tree of Counters node
// format, and the on-chip leaf level of a Bonsai-Merkle Tree (BMT) that
// protects the shadow region.
//
// Level numbering follows the paper: level 1 is the leaf level (encryption
// counter blocks), higher levels are ToC nodes, and the root lives on-chip
// and is never stored in NVM.
package itree

import (
	"fmt"

	"soteria/internal/config"
)

// BlockSize is the metadata node size (one NVM line).
const BlockSize = config.BlockSize

// LevelInfo describes one stored level of the tree.
type LevelInfo struct {
	// Level is the 1-based level number (1 = encryption counters).
	Level int
	// Nodes is the number of nodes in this level.
	Nodes uint64
	// Base is the byte address of the level's home region in NVM.
	Base uint64
	// CloneBases holds the base address of each clone region for this
	// level (length = depth-1; empty when the level is not cloned).
	CloneBases []uint64
	// CloneStrides holds, per clone region, the multiplicative stride of
	// the permutation that scatters clone slots within the region:
	// clone c of node i lives at slot (i * stride) mod Nodes. The
	// permutation decorrelates the physical placement (bank, row) of a
	// node's copies, so a structured fault that kills a stripe of home
	// copies does not kill the same nodes' clones.
	CloneStrides []uint64
	// CoverBytes is the number of data bytes covered by one node.
	CoverBytes uint64
}

// RegionKind classifies an NVM address for fault attribution.
type RegionKind int

// Region kinds, ordered as laid out in memory.
const (
	RegionData RegionKind = iota
	RegionDataMAC
	RegionMetadata // home copy of a counter block or tree node
	RegionClone    // one of Soteria's clone copies
	RegionShadow   // Anubis shadow table
	RegionUnused
)

func (r RegionKind) String() string {
	switch r {
	case RegionData:
		return "data"
	case RegionDataMAC:
		return "data-mac"
	case RegionMetadata:
		return "metadata"
	case RegionClone:
		return "clone"
	case RegionShadow:
		return "shadow"
	default:
		return "unused"
	}
}

// Location attributes one NVM line to a region; for metadata and clone
// regions it also names the tree level, node index and clone index.
type Location struct {
	Kind  RegionKind
	Level int    // valid for RegionMetadata / RegionClone
	Index uint64 // node index within level; block index for data/MAC
	Clone int    // clone index (0-based) for RegionClone
}

// Layout is the complete NVM address map of a protected memory. All
// regions are line-aligned and consecutive:
//
//	data | data MACs | L1..Lk home | shadow | (reserved) | clones
type Layout struct {
	DataBytes    uint64
	DataBlocks   uint64
	CounterArity int
	TreeArity    int
	// Levels[i] describes stored level i+1.
	Levels []LevelInfo
	// CloneDepths[i] is the total copy count (original included) of
	// level i+1; 1 means no clones.
	CloneDepths []int

	// DataBase is the byte address where the data region starts (zero
	// unless CloneRegionsFirst moved the clones below it).
	DataBase      uint64
	MACBase       uint64
	MACLines      uint64
	ShadowBase    uint64
	ShadowEntries uint64
	Total         uint64
}

// Params configures a layout.
type Params struct {
	// DataBytes is the protected data capacity.
	DataBytes uint64
	// CounterArity is the data blocks per counter block (64).
	CounterArity int
	// TreeArity is the ToC arity (8).
	TreeArity int
	// CloneDepths gives the copy count per level, outermost index =
	// level-1. Missing levels default to depth 1 (no clones); extra
	// entries are ignored. Nil means no cloning anywhere.
	CloneDepths []int
	// ShadowEntries is the number of Anubis shadow-table entries
	// (metadata cache sets x ways); zero disables the shadow region.
	ShadowEntries uint64
	// RegionAlign aligns every region base to a multiple of this size
	// (rounded up to a line). Reliability studies set it to the DIMM's
	// bank-interleave stripe so distinct regions start in distinct
	// banks; zero keeps regions densely packed.
	RegionAlign uint64
	// CloneRegionsFirst places the clone regions at the *bottom* of the
	// address space, before the data region, instead of at the top. On
	// a two-rank DIMM whose rank bit is the address MSB this puts every
	// clone in the opposite rank from its home copy — and ranks are
	// independent Chipkill domains, so no single-rank double fault can
	// kill a node and its clone together. The functional controller
	// keeps the default (data at address zero).
	CloneRegionsFirst bool
}

// NewLayout computes the full address map.
func NewLayout(p Params) (*Layout, error) {
	if p.DataBytes == 0 || p.DataBytes%BlockSize != 0 {
		return nil, fmt.Errorf("itree: data bytes %d must be a positive multiple of %d", p.DataBytes, BlockSize)
	}
	if p.CounterArity <= 0 || p.TreeArity <= 1 {
		return nil, fmt.Errorf("itree: invalid arities counter=%d tree=%d", p.CounterArity, p.TreeArity)
	}
	l := &Layout{
		DataBytes:    p.DataBytes,
		DataBlocks:   p.DataBytes / BlockSize,
		CounterArity: p.CounterArity,
		TreeArity:    p.TreeArity,
	}

	// Level node counts: L1 = counter blocks; L_{i+1} = ceil(L_i/arity)
	// until a level fits under one on-chip root node.
	counts := []uint64{ceilDiv(l.DataBlocks, uint64(p.CounterArity))}
	for counts[len(counts)-1] > uint64(p.TreeArity) {
		counts = append(counts, ceilDiv(counts[len(counts)-1], uint64(p.TreeArity)))
	}

	depth := func(level int) int {
		if level-1 < len(p.CloneDepths) && p.CloneDepths[level-1] > 1 {
			return p.CloneDepths[level-1]
		}
		return 1
	}

	align := p.RegionAlign
	if align < BlockSize {
		align = BlockSize
	}
	alignUp := func(v uint64) uint64 { return (v + align - 1) / align * align }

	// Validate depths and pre-compute strides.
	l.CloneDepths = make([]int, len(counts))
	for i := range counts {
		d := depth(i + 1)
		if d > MaxCloneDepth {
			return nil, fmt.Errorf("itree: clone depth %d at level %d exceeds WPQ-safe maximum %d", d, i+1, MaxCloneDepth)
		}
		l.CloneDepths[i] = d
	}

	var cursor uint64

	// allocClones places each level's clone regions at the current
	// cursor. By default they come last: a localized fault cannot
	// straddle a home copy and its clone, and every non-clone region has
	// the same address in the baseline, SRC and SAC layouts, so scheme
	// comparisons differ only where the schemes differ. With
	// CloneRegionsFirst they come first instead (opposite rank from the
	// home copies; see Params).
	cloneBases := make([][]uint64, len(counts))
	allocClones := func() {
		for i, n := range counts {
			for c := 0; c < l.CloneDepths[i]-1; c++ {
				cloneBases[i] = append(cloneBases[i], cursor)
				cursor = alignUp(cursor + n*BlockSize)
			}
		}
	}
	if p.CloneRegionsFirst {
		allocClones()
	}

	// Data region.
	l.DataBase = cursor
	cursor = alignUp(cursor + l.DataBytes)

	// Data MAC region: 8 bytes per data block, packed 8 per line.
	l.MACBase = cursor
	l.MACLines = ceilDiv(l.DataBlocks, 8)
	cursor = alignUp(cursor + l.MACLines*BlockSize)

	// Home regions.
	cover := uint64(p.CounterArity) * BlockSize
	for i, n := range counts {
		l.Levels = append(l.Levels, LevelInfo{
			Level:      i + 1,
			Nodes:      n,
			Base:       cursor,
			CoverBytes: cover,
		})
		cursor = alignUp(cursor + n*BlockSize)
		cover *= uint64(p.TreeArity)
	}

	// Shadow region. Its BMT is one on-chip MAC per entry with no
	// internal nodes, but the range a full tree's nodes would occupy
	// stays reserved so the clone regions above keep their addresses and
	// banks.
	if p.ShadowEntries > 0 {
		l.ShadowBase = cursor
		l.ShadowEntries = p.ShadowEntries
		cursor = alignUp(cursor + p.ShadowEntries*BlockSize)
		cursor = alignUp(cursor + BMTStorageLines(p.ShadowEntries)*BlockSize)
	}

	if !p.CloneRegionsFirst {
		allocClones()
	}
	for i := range counts {
		l.Levels[i].CloneBases = cloneBases[i]
		for c := range cloneBases[i] {
			l.Levels[i].CloneStrides = append(l.Levels[i].CloneStrides, cloneStride(counts[i], c))
		}
	}

	l.Total = cursor
	return l, nil
}

// MaxCloneDepth is the WPQ-imposed bound on copies per node (§3.2.1: the
// minimum WPQ holds 8 entries; three are reserved for cipher, data MAC and
// shadow log, so at most 5 copies can be committed atomically).
const MaxCloneDepth = 5

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// NumLevels returns the number of stored levels (root excluded).
func (l *Layout) NumLevels() int { return len(l.Levels) }

// TopLevel returns the highest stored level number; its nodes are the
// on-chip root's direct children.
func (l *Layout) TopLevel() int { return len(l.Levels) }

// NodeAddr returns the home address of node (level, index).
func (l *Layout) NodeAddr(level int, index uint64) uint64 {
	li := &l.Levels[level-1]
	if index >= li.Nodes {
		panic(fmt.Sprintf("itree: node index %d out of range for level %d (%d nodes)", index, level, li.Nodes))
	}
	return li.Base + index*BlockSize
}

// cloneStride picks the permutation stride for a clone region of n nodes:
// a value near the golden-ratio point of n (maximally spreading consecutive
// indices) that is coprime with n, varied per clone index so different
// clones scatter differently.
func cloneStride(n uint64, c int) uint64 {
	if n <= 2 {
		return 1
	}
	s := n*161803/261803 + uint64(c)*977 + 1
	s %= n
	if s == 0 {
		s = 1
	}
	for gcd(s, n) != 1 {
		s++
		if s >= n {
			s = 1
		}
	}
	return s
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns s^-1 mod n for gcd(s, n) == 1.
func modInverse(s, n uint64) uint64 {
	if n == 1 {
		return 0
	}
	// Extended Euclid on signed values.
	t, newT := int64(0), int64(1)
	r, newR := int64(n), int64(s%n)
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if t < 0 {
		t += int64(n)
	}
	return uint64(t)
}

// CloneSlot returns the slot within clone region c that holds node index's
// copy.
func (l *Layout) CloneSlot(level int, index uint64, c int) uint64 {
	li := &l.Levels[level-1]
	if li.Nodes <= 1 {
		return 0
	}
	return index * li.CloneStrides[c] % li.Nodes
}

// CloneAddr returns the address of clone c (0-based) of node (level,index).
// Clone copies are scattered within their region by a per-region
// permutation so that a structured physical fault (a dead row or bank
// stripe) that covers a run of home copies does not cover the same nodes'
// clones.
func (l *Layout) CloneAddr(level int, index uint64, c int) uint64 {
	li := &l.Levels[level-1]
	if c < 0 || c >= len(li.CloneBases) {
		panic(fmt.Sprintf("itree: clone %d out of range for level %d", c, level))
	}
	if index >= li.Nodes {
		panic(fmt.Sprintf("itree: node index %d out of range for level %d", index, level))
	}
	return li.CloneBases[c] + l.CloneSlot(level, index, c)*BlockSize
}

// CopyAddrs returns all copy addresses of a node, home first.
func (l *Layout) CopyAddrs(level int, index uint64) []uint64 {
	return l.AppendCopyAddrs(make([]uint64, 0, 1+len(l.Levels[level-1].CloneBases)), level, index)
}

// AppendCopyAddrs appends all copy addresses of a node, home first, to
// dst and returns it — CopyAddrs for callers that recycle a scratch
// slice across write-backs.
func (l *Layout) AppendCopyAddrs(dst []uint64, level int, index uint64) []uint64 {
	li := &l.Levels[level-1]
	dst = append(dst, l.NodeAddr(level, index))
	for c := range li.CloneBases {
		dst = append(dst, l.CloneAddr(level, index, c))
	}
	return dst
}

// CounterBlockOf returns the level-1 node index covering data block b.
func (l *Layout) CounterBlockOf(dataBlock uint64) uint64 {
	return dataBlock / uint64(l.CounterArity)
}

// SlotOf returns the minor-counter slot of data block b within its counter
// block.
func (l *Layout) SlotOf(dataBlock uint64) int {
	return int(dataBlock % uint64(l.CounterArity))
}

// Parent returns the (level, index, slot) of the parent of node
// (level, index). For the top stored level the parent is the on-chip root:
// ok=false and slot is the root-counter slot.
func (l *Layout) Parent(level int, index uint64) (plevel int, pindex uint64, slot int, stored bool) {
	slot = int(index % uint64(l.TreeArity))
	if level >= l.TopLevel() {
		return level + 1, 0, int(index), false
	}
	return level + 1, index / uint64(l.TreeArity), slot, true
}

// DataMACAddr returns (line address, byte offset) of data block b's MAC in
// the MAC region: MACs are packed 8 per line.
func (l *Layout) DataMACAddr(dataBlock uint64) (lineAddr uint64, offset int) {
	return l.MACBase + (dataBlock/8)*BlockSize, int(dataBlock%8) * 8
}

// ShadowEntryAddr returns the address of shadow-table entry i.
func (l *Layout) ShadowEntryAddr(i uint64) uint64 {
	if i >= l.ShadowEntries {
		panic(fmt.Sprintf("itree: shadow entry %d out of range (%d)", i, l.ShadowEntries))
	}
	return l.ShadowBase + i*BlockSize
}

// CoverageOf returns the absolute byte range [start, end) of data covered
// by node (level, index). The range is clipped to the data capacity (the
// last node of a level may be partially populated).
func (l *Layout) CoverageOf(level int, index uint64) (start, end uint64) {
	cover := l.Levels[level-1].CoverBytes
	start = index * cover
	end = start + cover
	if start > l.DataBytes {
		start = l.DataBytes
	}
	if end > l.DataBytes {
		end = l.DataBytes
	}
	return l.DataBase + start, l.DataBase + end
}

// Locate attributes an NVM line address to its region.
func (l *Layout) Locate(addr uint64) Location {
	switch {
	case addr >= l.DataBase && addr < l.DataBase+l.DataBytes:
		return Location{Kind: RegionData, Index: (addr - l.DataBase) / BlockSize}
	case addr >= l.MACBase && addr < l.MACBase+l.MACLines*BlockSize:
		return Location{Kind: RegionDataMAC, Index: (addr - l.MACBase) / BlockSize}
	}
	for _, li := range l.Levels {
		if addr >= li.Base && addr < li.Base+li.Nodes*BlockSize {
			return Location{Kind: RegionMetadata, Level: li.Level, Index: (addr - li.Base) / BlockSize}
		}
	}
	for _, li := range l.Levels {
		for c, base := range li.CloneBases {
			if addr >= base && addr < base+li.Nodes*BlockSize {
				slot := (addr - base) / BlockSize
				// Invert the placement permutation so Index reports
				// the *node* whose copy lives here.
				index := slot
				if li.Nodes > 1 {
					index = slot * modInverse(li.CloneStrides[c], li.Nodes) % li.Nodes
				}
				return Location{Kind: RegionClone, Level: li.Level, Index: index, Clone: c}
			}
		}
	}
	if addr >= l.ShadowBase && addr < l.ShadowBase+l.ShadowEntries*BlockSize {
		return Location{Kind: RegionShadow, Index: (addr - l.ShadowBase) / BlockSize}
	}
	return Location{Kind: RegionUnused}
}

// MetadataBytes returns the total bytes of counters + tree nodes (home
// copies only) — the paper's ~1.78% storage-overhead figure.
func (l *Layout) MetadataBytes() uint64 {
	var n uint64
	for _, li := range l.Levels {
		n += li.Nodes * BlockSize
	}
	return n
}

// OverheadRatio returns metadata bytes / data bytes.
func (l *Layout) OverheadRatio() float64 {
	return float64(l.MetadataBytes()) / float64(l.DataBytes)
}
