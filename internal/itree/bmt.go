package itree

import (
	"encoding/binary"
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/telemetry"
)

// LineStore abstracts the NVM the BMT reads and writes. ReadLine returns an
// error for a detected uncorrectable line — the BMT surfaces that to the
// caller instead of silently verifying garbage.
type LineStore interface {
	ReadLine(addr uint64) ([BlockSize]byte, error)
	WriteLine(addr uint64, data *[BlockSize]byte)
}

// BMT is a Bonsai-Merkle-style hash tree over a contiguous run of 64-byte
// leaves: every internal node packs eight 64-bit keyed hashes of its
// children, and the root hash is held on chip. Unlike the ToC, any node is
// recomputable from its children, so the tree supports only eager updates —
// which is exactly why the paper (and Anubis before it) uses a small eager
// BMT to protect the shadow region while the main tree stays a lazy ToC.
//
// Only the leaves live in the store. The internal nodes are ADR-backed
// on-chip SRAM, like the root register: the BMT holds the one trusted copy
// of every node, and a crash does not lose it. Update changes the path in
// that copy; Verify reads the leaf from the store and checks it up the
// same path, so a replayed or corrupted leaf is caught there.
type BMT struct {
	eng      *ctrenc.Engine
	store    LineStore
	leafBase uint64
	leaves   uint64
	// levelNodes[i] is the node count of internal level i (level 0 is
	// nearest the leaves) and levelOff[i] its first index in nodes. The
	// last level always has one node.
	levelNodes []uint64
	levelOff   []uint64
	root       uint64 // on-chip root hash
	tel        telemetryHooks

	// nodes is the on-chip copy of every internal node, level by level.
	nodes [][BlockSize]byte

	// leafBuf is Update scratch. WriteLine is an interface call, so a
	// line routed through it must live somewhere the compiler can prove
	// heap-resident — this BMT-owned buffer, like nodes — or every update
	// would allocate. The BMT is single-goroutine, like the shadow table
	// and controller that drive it.
	leafBuf [BlockSize]byte
}

// telemetryHooks holds the BMT's metric handles; nil handles (no registry
// attached) are no-ops.
type telemetryHooks struct {
	updates    *telemetry.Counter
	verifies   *telemetry.Counter
	verifyFail *telemetry.Counter
	rebuilds   *telemetry.Counter
}

// AttachTelemetry registers the eager shadow-tree metrics on r (nil
// detaches).
func (b *BMT) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		b.tel = telemetryHooks{}
		return
	}
	b.tel = telemetryHooks{
		updates:    r.Counter("bmt_updates_total"),
		verifies:   r.Counter("bmt_verifies_total"),
		verifyFail: r.Counter("bmt_verify_failures_total"),
		rebuilds:   r.Counter("bmt_rebuilds_total"),
	}
}

// BMTStorageLines returns the number of internal nodes a BMT over n
// leaves keeps on chip, in 64-byte lines.
func BMTStorageLines(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	var total uint64
	for c := ceilDiv(n, 8); ; c = ceilDiv(c, 8) {
		total += c
		if c == 1 {
			return total
		}
	}
}

// NewBMT builds a BMT over `leaves` lines starting at leafBase and
// initializes it from the current leaf contents. The last parameter is
// ignored: it was the NVM base of the internal nodes, which are now on
// chip, and stays so existing callers keep compiling.
func NewBMT(eng *ctrenc.Engine, store LineStore, leafBase, leaves, _ uint64) (*BMT, error) {
	if leaves == 0 {
		return nil, fmt.Errorf("itree: BMT needs at least one leaf")
	}
	b := &BMT{eng: eng, store: store, leafBase: leafBase, leaves: leaves}
	var off uint64
	for n := ceilDiv(leaves, 8); ; n = ceilDiv(n, 8) {
		b.levelNodes = append(b.levelNodes, n)
		b.levelOff = append(b.levelOff, off)
		off += n
		if n == 1 {
			break
		}
	}
	b.nodes = make([][BlockSize]byte, off)
	if err := b.rebuild(); err != nil {
		return nil, err
	}
	return b, nil
}

// slotHash reads the child hash stored in one slot of a node.
func slotHash(node *[BlockSize]byte, slot uint64) uint64 {
	return binary.LittleEndian.Uint64(node[slot*8 : slot*8+8])
}

// Root returns the on-chip root hash.
func (b *BMT) Root() uint64 { return b.root }

// leafHash hashes one leaf line bound to its index.
func (b *BMT) leafHash(index uint64, line *[BlockSize]byte) uint64 {
	return b.eng.MAC(ctrenc.DomainShadowTree, index, 0, line[:])
}

// nodeHash hashes one internal node line bound to (level+1, index).
func (b *BMT) nodeHash(level int, index uint64, line *[BlockSize]byte) uint64 {
	return b.eng.MAC(ctrenc.DomainShadowTree, uint64(level+1)<<56|index, 1, line[:])
}

// rebuild computes the whole tree from the leaves in the store, filling
// the on-chip node copy and the root.
func (b *BMT) rebuild() error {
	b.tel.rebuilds.Inc()
	children := b.leaves
	for lvl := range b.levelNodes {
		for n := uint64(0); n < b.levelNodes[lvl]; n++ {
			node := &b.nodes[b.levelOff[lvl]+n]
			*node = [BlockSize]byte{}
			for c := uint64(0); c < 8 && n*8+c < children; c++ {
				child := n*8 + c
				var h uint64
				if lvl == 0 {
					line, err := b.store.ReadLine(b.leafBase + child*BlockSize)
					if err != nil {
						return err
					}
					h = b.leafHash(child, &line)
				} else {
					h = b.nodeHash(lvl-1, child, &b.nodes[b.levelOff[lvl-1]+child])
				}
				binary.LittleEndian.PutUint64(node[c*8:c*8+8], h)
			}
		}
		children = b.levelNodes[lvl]
	}
	top := len(b.levelNodes) - 1
	b.root = b.nodeHash(top, 0, &b.nodes[b.levelOff[top]])
	return nil
}

// Update writes a leaf and eagerly propagates hashes to the root — the
// BMT's root is always fresh, giving the shadow region a single point of
// verification after a crash. Only the leaf is written to the store; each
// node on the path changes in the on-chip copy, and the store is never
// read.
func (b *BMT) Update(index uint64, line *[BlockSize]byte) error {
	if index >= b.leaves {
		return fmt.Errorf("itree: BMT leaf %d out of range (%d)", index, b.leaves)
	}
	b.tel.updates.Inc()
	b.leafBuf = *line
	b.store.WriteLine(b.leafBase+index*BlockSize, &b.leafBuf)
	h := b.leafHash(index, &b.leafBuf)
	child := index
	for lvl := range b.levelNodes {
		nodeIdx := child / 8
		node := &b.nodes[b.levelOff[lvl]+nodeIdx]
		binary.LittleEndian.PutUint64(node[child%8*8:child%8*8+8], h)
		h = b.nodeHash(lvl, nodeIdx, node)
		child = nodeIdx
	}
	b.root = h
	return nil
}

// Verify reads a leaf from the store and checks its hash chain, over the
// on-chip nodes, against the root. It returns the leaf contents when
// authentic.
func (b *BMT) Verify(index uint64) ([BlockSize]byte, error) {
	if index >= b.leaves {
		return [BlockSize]byte{}, fmt.Errorf("itree: BMT leaf %d out of range (%d)", index, b.leaves)
	}
	b.tel.verifies.Inc()
	leaf, err := b.store.ReadLine(b.leafBase + index*BlockSize)
	if err != nil {
		b.tel.verifyFail.Inc()
		return [BlockSize]byte{}, err
	}
	h := b.leafHash(index, &leaf)
	child := index
	for lvl := range b.levelNodes {
		nodeIdx := child / 8
		slot := child % 8
		node := &b.nodes[b.levelOff[lvl]+nodeIdx]
		if got := slotHash(node, slot); got != h {
			b.tel.verifyFail.Inc()
			return [BlockSize]byte{}, fmt.Errorf("itree: BMT hash mismatch at level %d node %d slot %d", lvl, nodeIdx, slot)
		}
		h = b.nodeHash(lvl, nodeIdx, node)
		child = nodeIdx
	}
	if h != b.root {
		b.tel.verifyFail.Inc()
		return [BlockSize]byte{}, fmt.Errorf("itree: BMT root mismatch")
	}
	return leaf, nil
}

// VerifyAll verifies every leaf; the first failure aborts.
func (b *BMT) VerifyAll() error {
	for i := uint64(0); i < b.leaves; i++ {
		if _, err := b.Verify(i); err != nil {
			return err
		}
	}
	return nil
}
