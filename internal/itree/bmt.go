package itree

import (
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

// BMT protects a contiguous run of 64-byte leaves in the store with the
// leaf level of a Bonsai-Merkle tree: one 64-bit keyed hash per leaf,
// bound to the leaf's index and held in ADR-backed on-chip SRAM. The
// paper (and Anubis before it) hangs a small eager BMT over the shadow
// region because the shadow lines are rewritten on every metadata update
// and must be verifiable after a crash without the lazy ToC.
//
// Every level above the leaf hashes would be on-chip SRAM too, so they
// would only vouch for state that is already trusted: an eager root over
// them adds a MAC per level to each update and catches nothing the leaf
// comparison does not. The tree is therefore one level deep. Update
// writes the leaf to the store and records its hash; Verify reads the
// leaf back and compares. Each slot's hash vouches for exactly the line
// last written there, so a corrupted, replayed or cross-slot leaf fails
// that comparison, and a crash does not lose the on-chip copy.
type BMT struct {
	eng      *ctrenc.Engine
	store    LineStore
	leafBase uint64
	hashes   []uint64 // on-chip leaf hashes, one per leaf
	tel      telemetryHooks

	// leafBuf is Update scratch. WriteLine is an interface call, so a
	// line routed through it must live somewhere the compiler can prove
	// heap-resident — this BMT-owned buffer — or every update would
	// allocate. The BMT is single-goroutine, like the shadow table and
	// controller that drive it.
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

// BMTStorageLines returns the number of 64-byte lines a full eight-ary
// hash tree over n leaves would need for its internal nodes. The BMT keeps
// none of them; the layout still reserves that range behind the shadow
// region so every address after it stays where it was.
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
// initializes its on-chip hashes from the current leaf contents. The last
// parameter is ignored: it was the NVM base of the internal nodes, which
// the BMT no longer has, and stays so existing callers keep compiling.
func NewBMT(eng *ctrenc.Engine, store LineStore, leafBase, leaves, _ uint64) (*BMT, error) {
	if leaves == 0 {
		return nil, fmt.Errorf("itree: BMT needs at least one leaf")
	}
	b := &BMT{eng: eng, store: store, leafBase: leafBase, hashes: make([]uint64, leaves)}
	if err := b.rebuild(); err != nil {
		return nil, err
	}
	return b, nil
}

// leafHash hashes one leaf line bound to its index.
func (b *BMT) leafHash(index uint64, line *[BlockSize]byte) uint64 {
	return b.eng.MAC(ctrenc.DomainShadowTree, index, 0, line[:])
}

// rebuild recomputes every on-chip leaf hash from the store.
func (b *BMT) rebuild() error {
	b.tel.rebuilds.Inc()
	for i := range b.hashes {
		line, err := b.store.ReadLine(b.leafBase + uint64(i)*BlockSize)
		if err != nil {
			return err
		}
		b.hashes[i] = b.leafHash(uint64(i), &line)
	}
	return nil
}

// Update writes a leaf to the store and records its hash on chip: one MAC,
// one line write, no store read.
func (b *BMT) Update(index uint64, line *[BlockSize]byte) error {
	if index >= uint64(len(b.hashes)) {
		return fmt.Errorf("itree: BMT leaf %d out of range (%d)", index, len(b.hashes))
	}
	b.tel.updates.Inc()
	b.leafBuf = *line
	b.store.WriteLine(b.leafBase+index*BlockSize, &b.leafBuf)
	b.hashes[index] = b.leafHash(index, &b.leafBuf)
	return nil
}

// Verify reads a leaf from the store and checks its hash against the
// on-chip one. It returns the leaf contents when authentic.
func (b *BMT) Verify(index uint64) ([BlockSize]byte, error) {
	if index >= uint64(len(b.hashes)) {
		return [BlockSize]byte{}, fmt.Errorf("itree: BMT leaf %d out of range (%d)", index, len(b.hashes))
	}
	b.tel.verifies.Inc()
	leaf, err := b.store.ReadLine(b.leafBase + index*BlockSize)
	if err != nil {
		b.tel.verifyFail.Inc()
		return [BlockSize]byte{}, err
	}
	if b.leafHash(index, &leaf) != b.hashes[index] {
		b.tel.verifyFail.Inc()
		return [BlockSize]byte{}, fmt.Errorf("itree: BMT hash mismatch at leaf %d", index)
	}
	return leaf, nil
}

// VerifyAll verifies every leaf; the first failure aborts.
func (b *BMT) VerifyAll() error {
	for i := range b.hashes {
		if _, err := b.Verify(uint64(i)); err != nil {
			return err
		}
	}
	return nil
}
