package itree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/sim"
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
// The internal nodes are on-chip state too: the BMT keeps a trusted copy
// of every node, like the root register, and Update changes that copy and
// writes it through to the store without reading the store back. A node
// the store replays or corrupts therefore never reaches the root through
// an Update; Verify still reads the store, so it is caught there.
type BMT struct {
	eng      *ctrenc.Engine
	store    LineStore
	leafBase uint64
	leaves   uint64
	// levelBase[i] is the NVM address of internal level i (level 0 is
	// nearest the leaves); levelNodes[i] its node count and levelOff[i]
	// its first index in nodes. The last level always has one node.
	levelBase  []uint64
	levelNodes []uint64
	levelOff   []uint64
	root       uint64 // on-chip root hash
	tel        telemetryHooks

	// nodes is the trusted on-chip copy of every internal node, level by
	// level. distrust marks the nodes AttachBMT could not verify against
	// the root (nil when every node is trusted); an Update whose path
	// crosses one fails.
	nodes    [][BlockSize]byte
	distrust []bool

	// leafBuf is Update scratch. WriteLine is an interface call, so a
	// line routed through it must live somewhere the compiler can prove
	// heap-resident — this BMT-owned buffer, like nodes — or every update
	// would allocate. The BMT is single-goroutine, like the shadow table
	// and controller that drive it.
	leafBuf [BlockSize]byte
}

// ErrUntrusted is wrapped by an Update whose path crosses a node that
// failed verification when the tree was attached after a crash.
var ErrUntrusted = errors.New("itree: BMT node failed verification against the root")

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

// BMTStorageLines returns the number of 64-byte lines a BMT over n leaves
// stores in memory (matching Layout's shadow-tree allocation).
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

// shape builds a BMT's level map (and an empty node copy) over `leaves`
// lines at leafBase with internal nodes at treeBase.
func shape(eng *ctrenc.Engine, store LineStore, leafBase, leaves, treeBase uint64) (*BMT, error) {
	if leaves == 0 {
		return nil, fmt.Errorf("itree: BMT needs at least one leaf")
	}
	b := &BMT{eng: eng, store: store, leafBase: leafBase, leaves: leaves}
	var off uint64
	for n := ceilDiv(leaves, 8); ; n = ceilDiv(n, 8) {
		b.levelBase = append(b.levelBase, treeBase+off*BlockSize)
		b.levelNodes = append(b.levelNodes, n)
		b.levelOff = append(b.levelOff, off)
		off += n
		if n == 1 {
			break
		}
	}
	b.nodes = make([][BlockSize]byte, off)
	return b, nil
}

// NewBMT builds a BMT over `leaves` lines starting at leafBase, storing
// internal nodes at treeBase. The tree is initialized from the current leaf
// contents.
func NewBMT(eng *ctrenc.Engine, store LineStore, leafBase, leaves, treeBase uint64) (*BMT, error) {
	b, err := shape(eng, store, leafBase, leaves, treeBase)
	if err != nil {
		return nil, err
	}
	if err := b.Rebuild(); err != nil {
		return nil, err
	}
	return b, nil
}

// AttachBMT builds the BMT's level map over existing storage without
// rebuilding anything, then installs the given root. It is the post-crash
// constructor: the root survived in the processor's persistent register and
// the stored tree nodes are verified against it, never regenerated from
// possibly-tampered leaves. Every internal node is read once, top down; a
// node that is unreadable, or whose hash its (trusted) parent does not
// vouch for, stays untrusted along with everything below it.
func AttachBMT(eng *ctrenc.Engine, store LineStore, leafBase, leaves, treeBase uint64, root uint64) (*BMT, error) {
	b, err := shape(eng, store, leafBase, leaves, treeBase)
	if err != nil {
		return nil, err
	}
	b.root = root
	top := len(b.levelBase) - 1
	for lvl := top; lvl >= 0; lvl-- {
		for n := uint64(0); n < b.levelNodes[lvl]; n++ {
			i := b.levelOff[lvl] + n
			line, err := b.store.ReadLine(b.levelBase[lvl] + n*BlockSize)
			ok := err == nil
			if ok {
				b.nodes[i] = line
				want := root
				if lvl < top {
					parent := b.levelOff[lvl+1] + n/8
					ok = !b.untrusted(parent)
					want = slotHash(&b.nodes[parent], n%8)
				}
				ok = ok && b.nodeHash(lvl, n, &line) == want
			}
			if !ok {
				b.distrustNode(i)
			}
		}
	}
	return b, nil
}

// untrusted reports whether node i (an index into nodes) failed
// verification at attach time.
func (b *BMT) untrusted(i uint64) bool { return b.distrust != nil && b.distrust[i] }

func (b *BMT) distrustNode(i uint64) {
	if b.distrust == nil {
		b.distrust = make([]bool, len(b.nodes))
	}
	b.distrust[i] = true
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

// Rebuild recomputes the whole tree from the leaves (used at construction
// and by recovery once leaves are restored), refilling the trusted node
// copy and writing every node through to the store.
func (b *BMT) Rebuild() error {
	b.tel.rebuilds.Inc()
	b.distrust = nil
	children := b.leaves
	for lvl := range b.levelBase {
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
			b.store.WriteLine(b.levelBase[lvl]+n*BlockSize, node)
		}
		children = b.levelNodes[lvl]
	}
	top := len(b.levelBase) - 1
	b.root = b.nodeHash(top, 0, &b.nodes[b.levelOff[top]])
	return nil
}

// Update writes a leaf and eagerly propagates hashes to the root — the
// BMT's root is always fresh, giving the shadow region a single point of
// verification after a crash. Each node on the path changes in the
// trusted copy and is written through; the store is never read.
func (b *BMT) Update(index uint64, line *[BlockSize]byte) error {
	if index >= b.leaves {
		return fmt.Errorf("itree: BMT leaf %d out of range (%d)", index, b.leaves)
	}
	b.tel.updates.Inc()
	b.leafBuf = *line
	b.store.WriteLine(b.leafBase+index*BlockSize, &b.leafBuf)
	h := b.leafHash(index, &b.leafBuf)
	child := index
	for lvl := range b.levelBase {
		nodeIdx := child / 8
		i := b.levelOff[lvl] + nodeIdx
		if b.untrusted(i) {
			return fmt.Errorf("itree: BMT level %d node %d unreadable: %w", lvl, nodeIdx, ErrUntrusted)
		}
		node := &b.nodes[i]
		binary.LittleEndian.PutUint64(node[child%8*8:child%8*8+8], h)
		b.store.WriteLine(b.levelBase[lvl]+nodeIdx*BlockSize, node)
		h = b.nodeHash(lvl, nodeIdx, node)
		child = nodeIdx
	}
	b.root = h
	return nil
}

// Verify checks a leaf's hash chain against the on-chip root. It returns
// the leaf contents when authentic.
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
	for lvl := range b.levelBase {
		nodeIdx := child / 8
		slot := child % 8
		nodeLine, err := b.store.ReadLine(b.levelBase[lvl] + nodeIdx*BlockSize)
		if err != nil {
			b.tel.verifyFail.Inc()
			return [BlockSize]byte{}, err
		}
		if got := binary.LittleEndian.Uint64(nodeLine[slot*8 : (slot+1)*8]); got != h {
			b.tel.verifyFail.Inc()
			return [BlockSize]byte{}, fmt.Errorf("itree: BMT hash mismatch at level %d node %d slot %d", lvl, nodeIdx, slot)
		}
		h = b.nodeHash(lvl, nodeIdx, &nodeLine)
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

// Checkpoint serializes the BMT's on-chip state: the root register and the
// trusted node copy (an untrusted node as a bare false flag). The stored
// lines themselves live in the NVM device, checkpointed by its owner.
func (b *BMT) Checkpoint(w *sim.SnapW) {
	w.U64(b.root)
	for i := range b.nodes {
		trusted := !b.untrusted(uint64(i))
		w.Bool(trusted)
		if trusted {
			w.Raw(b.nodes[i][:])
		}
	}
}

// RestoreBMT rebuilds a BMT from a Checkpoint over the same geometry. It
// reads nothing from the store: the node copy comes from the checkpoint.
func RestoreBMT(eng *ctrenc.Engine, store LineStore, leafBase, leaves, treeBase uint64, r *sim.SnapR) (*BMT, error) {
	b, err := shape(eng, store, leafBase, leaves, treeBase)
	if err != nil {
		return nil, err
	}
	b.root = r.U64()
	for i := range b.nodes {
		if !r.Bool() {
			b.distrustNode(uint64(i))
			continue
		}
		copy(b.nodes[i][:], r.Raw(BlockSize))
	}
	return b, r.Err()
}
