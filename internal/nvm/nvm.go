// Package nvm models a byte-accurate non-volatile main memory built from
// 64-byte lines, each protected by Chipkill-Correct ECC. The device is the
// persistence substrate for the whole reproduction: the secure memory
// controller stores data, counters, tree nodes, MACs, the Anubis shadow
// region and Soteria's clone regions in it, and the fault-injection API lets
// tests and experiments plant correctable and uncorrectable errors anywhere.
//
// Storage is sparse: lines live in fixed-size pages behind a two-level
// directory, and only pages holding a written (or faulted) line are
// allocated, so a nominally 16 GB device costs memory proportional to its
// touched footprint. A page keeps its lines' cells, check bytes and write
// counts in separate arrays, and the directory entry pointing to it holds
// the page's present and fresh bitmaps, so reading a fresh line touches that
// entry and the line's one host cache line.
//
// Check bytes are deferred. A line that is newly materialized or written is
// fresh: its check bytes have not been computed and its cells hold exactly
// what was last written. Reading a fresh line returns its cells and decodes
// nothing, which is what decoding a just-encoded, untouched codeword would
// give. Every fault-injection entry point first settles the line it touches
// (encodes its check bytes from the cells), so a fault meets the check bytes
// a device that encodes on every write would hold. ClearFaults settles every
// line.
package nvm

import (
	"fmt"
	"math/bits"

	"soteria/internal/config"
	"soteria/internal/ecc"
	"soteria/internal/inject"
	"soteria/internal/telemetry"
)

// LineSize is the NVM line size in bytes (one cache line).
const LineSize = config.BlockSize

// Line is one 64-byte memory line. It is an alias (not a distinct type) so
// lines interconvert freely with the [64]byte buffers used by the crypto
// and tree layers.
type Line = [LineSize]byte

// A line index splits into directory slot, page slot and line: pages of
// pageLines lines, dirPages pages to a directory node. The root is sized
// from the capacity at construction; nodes and pages are allocated on first
// touch, so untouched address space costs one nil root pointer per
// pageLines*dirPages lines (2 MB): 64 KB for a 16 GB device. A page is 64
// lines so that one bitmap word covers it.
const (
	pageShift = 6
	pageLines = 1 << pageShift
	dirShift  = 9
	dirPages  = 1 << dirShift
)

// page holds pageLines lines as struct-of-arrays: the cells first, so every
// line is one 64-byte-aligned host cache line, then each line's 16 stored
// Chipkill check bytes and its write count.
type page struct {
	data  [pageLines]Line
	check [pageLines][16]byte
	wear  [pageLines]uint64
}

// dirEntry is a page's slot in its directory node, with one bit per line of
// the page: present marks a materialized line (an absent one is all zero);
// fresh means the line's check bytes are stale and its cells are exactly
// what was last written (zeroes for a line never written), and settle
// computes the check bytes and clears it. A lookup reads this entry and the
// line's cells, nothing else.
type dirEntry struct {
	page           *page
	present, fresh uint64
}

type dirNode [dirPages]dirEntry

// Stats aggregates device activity.
type Stats struct {
	Reads             uint64
	Writes            uint64
	CorrectedLines    uint64
	UncorrectableHits uint64
}

// Device is the simulated NVM module.
type Device struct {
	capacity uint64 // bytes
	codec    *ecc.Chipkill
	root     []*dirNode
	touched  int // materialized lines
	stats    Stats

	// hook, when set, observes every write boundary (chaos injection).
	hook inject.Hook

	// badWords backs the BadWords of an uncorrectable read. The device,
	// like the controller driving it, is single-goroutine.
	badWords [8]int
}

// AttachTelemetry exports the device's books to r (nil exports nothing);
// the nvm_* counters there start from the books as they stand.
func (d *Device) AttachTelemetry(r *telemetry.Registry) {
	r.Export("nvm_reads_total", func() uint64 { return d.stats.Reads })
	r.Export("nvm_writes_total", func() uint64 { return d.stats.Writes })
	r.Export("nvm_corrected_lines_total", func() uint64 { return d.stats.CorrectedLines })
	r.Export("nvm_uncorrectable_hits_total", func() uint64 { return d.stats.UncorrectableHits })
}

// SetWriteHook installs (or, with nil, removes) the injection hook fired
// before every line write is applied. A hook that panics with
// inject.PowerLoss models losing power before the write: the array keeps
// its previous contents.
func (d *Device) SetWriteHook(h inject.Hook) { d.hook = h }

// NewDevice creates an NVM device of the given capacity protected by codec;
// a nil codec gets one of its own from ecc.NewChipkill. Capacity must be a
// positive multiple of the line size.
func NewDevice(capacity uint64, codec *ecc.Chipkill) (*Device, error) {
	if capacity == 0 || capacity%LineSize != 0 {
		return nil, fmt.Errorf("nvm: capacity %d must be a positive multiple of %d", capacity, LineSize)
	}
	if codec == nil {
		codec = ecc.NewChipkill()
	}
	const nodeLines = pageLines * dirPages
	root := make([]*dirNode, (capacity/LineSize+nodeLines-1)/nodeLines)
	return &Device{capacity: capacity, codec: codec, root: root}, nil
}

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() uint64 { return d.capacity }

// Lines returns the number of addressable lines.
func (d *Device) Lines() uint64 { return d.capacity / LineSize }

// Stats returns a copy of the accumulated device statistics.
func (d *Device) Stats() Stats { return d.stats }

// WearOf returns the write count of the line containing addr.
func (d *Device) WearOf(addr uint64) uint64 {
	if e, i := d.lookup(addr / LineSize); e != nil {
		return e.page.wear[i]
	}
	return 0
}

// TouchedLines returns how many lines have materialized storage.
func (d *Device) TouchedLines() int { return d.touched }

// Materialized reports whether the line containing addr has ever been
// written or faulted. The secure controller uses this for cold-read
// semantics: a never-touched line reads as zeroes without verification.
func (d *Device) Materialized(addr uint64) bool {
	e, _ := d.lookup(addr / LineSize)
	return e != nil
}

// ForEachTouched visits every materialized line address in ascending order.
// Callers depend on the order: chaos.Injector's fault schedule draws
// fault targets by position, and memctrl.VerifyAll reports the lowest
// failing block.
func (d *Device) ForEachTouched(fn func(lineAddr uint64)) {
	d.forEach(func(idx uint64, _ *dirEntry, _ uint) { fn(idx * LineSize) })
}

// forEach visits every materialized line in ascending order, with its page's
// directory entry and its slot in the page.
func (d *Device) forEach(fn func(idx uint64, e *dirEntry, i uint)) {
	for ni, node := range d.root {
		if node == nil {
			continue
		}
		for pi := range node {
			e := &node[pi]
			base := (uint64(ni)<<dirShift | uint64(pi)) << pageShift
			for m := e.present; m != 0; m &= m - 1 {
				i := uint(bits.TrailingZeros64(m))
				fn(base|uint64(i), e, i)
			}
		}
	}
}

// checkAddr returns the line index of an aligned address within the
// capacity, and panics on any other.
func (d *Device) checkAddr(addr uint64) uint64 {
	if addr%LineSize != 0 || addr >= d.capacity {
		panic(badAddr(addr))
	}
	return addr / LineSize
}

// badAddr is the panic value of an access checkAddr refuses.
type badAddr uint64

func (a badAddr) Error() string {
	return fmt.Sprintf("nvm: line address %#x unaligned or beyond capacity", uint64(a))
}

// lookup returns the directory entry and page slot of a materialized line,
// or a nil entry when the line has not materialized. idx may be anything;
// beyond the capacity nothing is materialized.
func (d *Device) lookup(idx uint64) (*dirEntry, uint) {
	i := uint(idx & (pageLines - 1))
	if ni := idx >> (pageShift + dirShift); ni < uint64(len(d.root)) && d.root[ni] != nil {
		if e := &d.root[ni][idx>>pageShift&(dirPages-1)]; e.present>>i&1 != 0 {
			return e, i
		}
	}
	return nil, i
}

// line returns the directory entry and page slot of a line within the
// capacity, materializing a zero, fresh line (and its page and directory
// node) when absent.
func (d *Device) line(idx uint64) (*dirEntry, uint) {
	np := &d.root[idx>>(pageShift+dirShift)]
	if *np == nil {
		*np = new(dirNode)
	}
	e, i := &(*np)[idx>>pageShift&(dirPages-1)], uint(idx&(pageLines-1))
	if e.present>>i&1 == 0 {
		if e.page == nil {
			e.page = new(page)
		}
		e.present |= 1 << i
		e.fresh |= 1 << i
		d.touched++
	}
	return e, i
}

// settle computes a fresh line's check bytes from its cells, the ones an
// encode on every write would have stored. Every fault injection calls it
// before touching cells or check bytes.
func (d *Device) settle(e *dirEntry, i uint) {
	if e.fresh>>i&1 != 0 {
		d.codec.EncodeInto(e.page.check[i][:], e.page.data[i][:])
		e.fresh &^= 1 << i
	}
}

// Write stores one line at the given (aligned) byte address and leaves its
// check bytes to settle.
func (d *Device) Write(addr uint64, data *Line) {
	idx := d.checkAddr(addr)
	if d.hook != nil {
		d.hook.Event(inject.Event{Kind: inject.DeviceWrite, Addr: addr})
	}
	e, i := d.line(idx)
	e.page.data[i] = *data
	e.fresh |= 1 << i
	d.stats.Writes++
	e.page.wear[i]++
}

// ReadResult describes one line read.
type ReadResult struct {
	// Data is the post-ECC line contents. When Uncorrectable is true the
	// data is the raw (corrupt) cell contents and must not be trusted.
	Data Line
	// Corrected is true when ECC repaired at least one symbol.
	Corrected bool
	// Uncorrectable is true when the line holds a detected
	// uncorrectable error.
	Uncorrectable bool
	// BadWords lists 8-byte words that failed to decode (per-codeword
	// granularity used by Soteria's duplicated shadow entries), in
	// ascending order; nil when none did. It is the device's own buffer,
	// valid until the next Read.
	BadWords []int
}

// Read fetches one line, running ECC decode over a settled line. Reads of
// never-written lines return zeroes.
func (d *Device) Read(addr uint64) ReadResult {
	idx := d.checkAddr(addr)
	d.stats.Reads++
	e, i := d.lookup(idx)
	if e == nil {
		return ReadResult{}
	}
	p := e.page
	if e.fresh>>i&1 != 0 {
		// Nothing to decode: the cells are a clean codeword's data.
		return ReadResult{Data: p.data[i]}
	}
	buf := p.data[i]
	check := p.check[i][:]
	res := d.codec.Decode(buf[:], check)
	if res.Corrected {
		d.stats.CorrectedLines++
		// A patrol-scrub style write-back of the corrected value keeps
		// correctable faults from accumulating, mirroring real
		// controllers (demand scrubbing). A beat that failed to decode
		// keeps its old check bytes: encoding them from its corrupt cells
		// would make the next read return the corrupt word as clean.
		old := p.check[i]
		p.data[i] = buf
		d.codec.EncodeInto(check, buf[:])
		for m := res.BadWords; m != 0; m &= m - 1 {
			b := bits.TrailingZeros8(m)
			copy(check[b*2:b*2+2], old[b*2:])
		}
	}
	var bad []int
	if res.Uncorrectable {
		d.stats.UncorrectableHits++
		bad = d.badWords[:0]
		for m := res.BadWords; m != 0; m &= m - 1 {
			bad = append(bad, bits.TrailingZeros8(m))
		}
	}
	return ReadResult{
		Data:          buf,
		Corrected:     res.Corrected,
		Uncorrectable: res.Uncorrectable,
		BadWords:      bad,
	}
}

// ReadIfMaterialized is Materialized and Read in one directory walk: for a
// materialized line it reads the line into r and reports true; for a line
// that never materialized it reports false, leaves r alone and counts no
// read. The secure controller's data reads use it for their cold-read
// check. A fresh line is read here; a settled one, which only a fault
// injection leaves, goes through Read and so walks the directory again.
// Read stays whole rather than sharing a helper with this, because each
// extra frame copies the 96-byte result once more: Read as a wrapper read
// a fresh line in 52–85 ns instead of 19–26, and with its decode split out
// a settled one about 20 % slower (BenchmarkDeviceRead).
func (d *Device) ReadIfMaterialized(addr uint64, r *ReadResult) bool {
	e, i := d.lookup(d.checkAddr(addr))
	switch {
	case e == nil:
		return false
	case e.fresh>>i&1 != 0:
		d.stats.Reads++
		*r = ReadResult{Data: e.page.data[i]} // as in Read
	default:
		*r = d.Read(addr)
	}
	return true
}

// ReadRaw returns the raw cell contents without ECC decoding (used by
// recovery paths that want to inspect a corrupt line's surviving words).
func (d *Device) ReadRaw(addr uint64) Line {
	if e, i := d.lookup(d.checkAddr(addr)); e != nil {
		return e.page.data[i]
	}
	return Line{}
}

// --- Fault injection -------------------------------------------------------

// FlipBit flips a single data bit: addr addresses the byte, bit the bit
// within it. Alone in its Chipkill beat it is correctable: the next Read
// repairs it.
func (d *Device) FlipBit(addr uint64, bit uint) {
	e, i := d.line(d.checkAddr(addr - addr%LineSize))
	d.settle(e, i)
	e.page.data[i][addr%LineSize] ^= 1 << (bit % 8)
}

// FlipCheckBit flips one bit of the stored ECC check bytes of the line at
// the given line-aligned address.
func (d *Device) FlipCheckBit(addr uint64, byteIdx int, bit uint) {
	e, i := d.line(d.checkAddr(addr))
	d.settle(e, i)
	check := &e.page.check[i]
	check[byteIdx%len(check)] ^= 1 << (bit % 8)
}

// CorruptWord plants a detectably uncorrectable error in 8-byte word w of
// the line at addr by flipping two bits in distinct symbol lanes.
func (d *Device) CorruptWord(addr uint64, w int) {
	e, i := d.line(d.checkAddr(addr))
	d.settle(e, i)
	w = w % 8
	// Flip exactly two bits in two different byte lanes of the word:
	// a double-symbol error in one Chipkill beat (detected, not
	// corrected).
	e.page.data[i][w*8+0] ^= 0x01
	e.page.data[i][w*8+3] ^= 0x80
}

// CorruptLine plants an uncorrectable error in every word of the line —
// the "node is gone" case of Fig 9 step 4.
func (d *Device) CorruptLine(addr uint64) {
	for w := 0; w < 8; w++ {
		d.CorruptWord(addr, w)
	}
}

// ClearFaults re-encodes every materialized line's ECC from its current
// cells, so no injected fault is detected any more (a repair-everything
// escape hatch for experiments).
func (d *Device) ClearFaults() {
	d.forEach(func(_ uint64, e *dirEntry, i uint) {
		d.codec.EncodeInto(e.page.check[i][:], e.page.data[i][:])
		e.fresh &^= 1 << i
	})
}
