package itree

import (
	"encoding/binary"

	"soteria/internal/ctrenc"
)

// CounterBits is the width of each counter in an intermediate ToC node.
// Eight 56-bit counters plus a 64-bit MAC fill exactly one 64-byte line,
// the organization shown in Fig 2.
const CounterBits = 56

// CounterMask masks a ToC counter to its stored width.
const CounterMask = (uint64(1) << CounterBits) - 1

// Node is one intermediate node of the Tree of Counters: one counter per
// child plus an embedded MAC. The MAC covers the node's own counters and is
// keyed by the node's position and its parent's counter for this subtree —
// the inter-level dependency that makes ToC replay-resistant but also, as
// the paper stresses, *not* recomputable from children after an error.
type Node struct {
	Counters [8]uint64 // each at most CounterBits wide
	MAC      uint64
}

// Serialize packs the node into one 64-byte line: eight 7-byte counters
// followed by the 8-byte MAC.
func (n *Node) Serialize() [BlockSize]byte {
	var out [BlockSize]byte
	for i, c := range n.Counters {
		putUint56(out[i*7:(i+1)*7], c&CounterMask)
	}
	binary.LittleEndian.PutUint64(out[56:64], n.MAC)
	return out
}

// DeserializeNode unpacks a 64-byte line into a ToC node.
func DeserializeNode(line *[BlockSize]byte) Node {
	var n Node
	for i := range n.Counters {
		n.Counters[i] = getUint56(line[i*7 : (i+1)*7])
	}
	n.MAC = binary.LittleEndian.Uint64(line[56:64])
	return n
}

// ContentMAC computes the MAC binding the node's counters to its tree
// position (level, index) and the parent counter guarding it. The stored
// MAC field is excluded from the input.
func (n *Node) ContentMAC(e *ctrenc.Engine, level int, index uint64, parentCounter uint64) uint64 {
	body := n.Serialize()
	return NodeLineMAC(e, level, index, parentCounter, &body)
}

// NodeLineMAC is ContentMAC computed straight from a stored line: eight
// 7-byte counters fill bytes 0..55 exactly, so the MAC input is the line's
// first 56 bytes as they are.
func NodeLineMAC(e *ctrenc.Engine, level int, index uint64, parentCounter uint64, line *[BlockSize]byte) uint64 {
	tweak := uint64(level)<<48 | (index & ((1 << 48) - 1))
	return e.MAC(ctrenc.DomainNode, tweak, parentCounter, line[:56])
}

// Increment bumps the counter in the given child slot, wrapping at the
// stored width. A ToC counter wrap after 2^56 updates is not a security
// event for the tree itself (the parent counter changes too), so unlike
// split-counter minors no re-encryption is triggered.
func (n *Node) Increment(slot int) {
	n.Counters[slot] = (n.Counters[slot] + 1) & CounterMask
}

func putUint56(dst []byte, v uint64) {
	for i := 0; i < 7; i++ {
		dst[i] = byte(v >> uint(8*i))
	}
}

func getUint56(src []byte) uint64 {
	var v uint64
	for i := 0; i < 7; i++ {
		v |= uint64(src[i]) << uint(8*i)
	}
	return v
}
