// Package oracle is the acknowledged-write oracle the crash and load
// harnesses hold a store to: the paper's claim that no acknowledged write
// is lost and no corrupted line is silently accepted. It is two things,
// both pure data: Fill, the deterministic payload of every workload write,
// which the oracle recomputes rather than stores, and Book, the record of
// which write each line last acknowledged.
package oracle

import (
	"cmp"
	"slices"

	"soteria/internal/nvm"
)

// Fill writes into dst the payload of stream's version-th write under
// seed: splitmix64 over the three, one 64-bit word per eight bytes.
func Fill(dst *nvm.Line, seed int64, stream uint64, version int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 + stream*0x94d049bb133111eb + uint64(version+1)*0xbf58476d1ce4e5b9
	for off := 0; off < nvm.LineSize; off += 8 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		for k := 0; k < 8; k++ {
			dst[off+k] = byte(x >> (8 * uint(k)))
		}
	}
}

// Key names one line: the payload stream that writes it and its address.
type Key struct {
	Stream uint64
	Addr   uint64
}

// Write is one workload write: version of Key's stream.
type Write struct {
	Key     Key
	Version int
}

// Book is the acknowledged-write record of one seeded workload. Its zero
// value with Seed set is ready to use.
type Book struct {
	Seed  int64
	Acked map[Key]int // line -> version of its last acknowledged write
	// InFlight is the one write a power loss cut, nil if none: its line
	// may hold the old value or the new one.
	InFlight *Write
}

// Ack records that the write of version to k was acknowledged.
func (b *Book) Ack(k Key, version int) {
	if b.Acked == nil {
		b.Acked = map[Key]int{}
	}
	b.Acked[k] = version
}

// Cut records the write of version to k as the one the power loss cut.
func (b *Book) Cut(k Key, version int) { b.InFlight = &Write{k, version} }

// Keys lists every line the book can check: the acknowledged ones by
// stream then address, then a cut line never acknowledged before.
func (b *Book) Keys() []Key {
	keys := make([]Key, 0, len(b.Acked)+1)
	for k := range b.Acked {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y Key) int {
		return cmp.Or(cmp.Compare(x.Stream, y.Stream), cmp.Compare(x.Addr, y.Addr))
	})
	if c := b.InFlight; c != nil {
		if _, ok := b.Acked[c.Key]; !ok {
			keys = append(keys, c.Key)
		}
	}
	return keys
}

// Verdict is what Check found a line to hold.
type Verdict int

const (
	Unchecked         Verdict = iota // never acknowledged nor cut: nothing to compare with
	OK                               // the value the book allows
	Stale                            // not the last acknowledged version: stale or corrupt
	NeitherOldNorNew                 // the cut line holds neither its acknowledged nor its cut version
	NeitherZeroNorNew                // the cut line, never acknowledged, is neither zero nor its cut version
)

// Check judges got, what line k read back.
func (b *Book) Check(k Key, got *nvm.Line) Verdict {
	v, acked := b.Acked[k]
	cut := b.InFlight != nil && b.InFlight.Key == k
	switch {
	case !acked && !cut:
		return Unchecked
	case acked && b.holds(got, k, v), cut && b.holds(got, k, b.InFlight.Version), !acked && *got == nvm.Line{}:
		return OK
	case !cut:
		return Stale
	case acked:
		return NeitherOldNorNew
	}
	return NeitherZeroNorNew
}

// holds reports whether got is the payload of version of k's stream.
func (b *Book) holds(got *nvm.Line, k Key, version int) bool {
	var want nvm.Line
	Fill(&want, b.Seed, k.Stream, version)
	return *got == want
}
