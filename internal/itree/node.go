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

// CountersPerNode is the number of child counters in a ToC node.
const CountersPerNode = 8

// Node is one intermediate node of the Tree of Counters: one counter per
// child plus an embedded MAC. The MAC covers the node's own counters and is
// keyed by the node's position and its parent's counter for this subtree —
// the inter-level dependency that makes ToC replay-resistant but also, as
// the paper stresses, *not* recomputable from children after an error.
type Node struct {
	Counters [CountersPerNode]uint64 // each at most CounterBits wide
	MAC      uint64
}

// Serialize packs the node into one 64-byte line: eight 7-byte counters
// followed by the 8-byte MAC.
func (n *Node) Serialize() [BlockSize]byte {
	var l NodeLine
	for i, c := range n.Counters {
		l.SetCounter(i, c)
	}
	binary.LittleEndian.PutUint64(l[56:64], n.MAC)
	return l
}

// DeserializeNode unpacks a 64-byte line into a ToC node.
func DeserializeNode(line *[BlockSize]byte) Node {
	var n Node
	l := (*NodeLine)(line)
	for i := range n.Counters {
		n.Counters[i] = l.Counter(i)
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

// NodeLine is a ToC node in its stored form, the 64-byte line
// Node.Serialize produces, read and updated in place: a metadata cache way
// holds the line NVM stores. Counter i is the little-endian 7-byte field at
// bytes 7i..7i+6; the MAC is bytes 56..63.
type NodeLine [BlockSize]byte

// Counter returns child slot i's counter.
func (l *NodeLine) Counter(i int) uint64 {
	return binary.LittleEndian.Uint64(l[i*7:]) & CounterMask
}

// SetCounter stores v, masked to CounterBits, as child slot i's counter,
// leaving the byte after the field as it is.
func (l *NodeLine) SetCounter(i int, v uint64) {
	w := binary.LittleEndian.Uint64(l[i*7:])
	binary.LittleEndian.PutUint64(l[i*7:], w&^CounterMask|v&CounterMask)
}

// Increment bumps child slot i's counter, wrapping at CounterMask, as
// Node.Increment does.
func (l *NodeLine) Increment(i int) { l.SetCounter(i, l.Counter(i)+1) }
