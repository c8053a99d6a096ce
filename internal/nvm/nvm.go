// Package nvm models a byte-accurate non-volatile main memory built from
// 64-byte lines, each protected by a pluggable ECC codec. The device is the
// persistence substrate for the whole reproduction: the secure memory
// controller stores data, counters, tree nodes, MACs, the Anubis shadow
// region and Soteria's clone regions in it, and the fault-injection API lets
// tests and experiments plant correctable and uncorrectable errors anywhere.
//
// Storage is sparse: lines live in fixed-size pages of value records behind a
// two-level directory, and only pages holding a written (or faulted) line are
// allocated, so a nominally 16 GB device costs memory proportional to its
// touched footprint.
//
// Check bytes are deferred. A line that is newly materialized, or was last
// written with no stuck cells, is fresh: its check bytes have not been
// computed and its cells hold exactly what was last written. Reading a fresh
// line returns its cells and decodes nothing, which is what decoding a
// just-encoded, untouched codeword would give. Every fault-injection entry
// point first settles the line it touches (encodes its check bytes from the
// cells), so a fault meets the check bytes a device that encodes on every
// write would hold. ClearFaults settles every line.
package nvm

import (
	"fmt"

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

// maxCheckBytes is the widest per-line ECC a record holds inline (Chipkill).
const maxCheckBytes = 16

// storedLine is one record of a page: a line's raw cells, its stored ECC
// check bytes (the first Codec.CheckBytes() of check) and its write count,
// contiguous so a read or write touches one record and nothing else. present
// marks a materialized line; an absent record is all zero. fresh means check
// is stale and data is exactly what was last written (zeroes for a line
// never written); settle computes check and clears it. The record stays 96
// bytes.
type storedLine struct {
	data    Line
	check   [maxCheckBytes]byte
	wear    uint64
	present bool
	fresh   bool
}

// stuckCells describes a line's permanently faulty cells: after any write,
// bits in mask take the value in val.
type stuckCells struct {
	mask, val Line
}

// A line index splits into directory slot, page slot and record: pages of
// pageLines records, dirPages pages to a directory node. The root is sized
// from the capacity at construction; nodes and pages are allocated on first
// touch, so untouched address space costs one nil root pointer per
// pageLines*dirPages lines (2 MB): 64 KB for a 16 GB device. Peak RSS of the
// four soteria-bench workloads is flat (within 2 %) from 32 to 256 lines a
// page; 64 keeps an isolated line at 6 KB.
const (
	pageShift = 6
	pageLines = 1 << pageShift
	dirShift  = 9
	dirPages  = 1 << dirShift
)

type (
	page    [pageLines]storedLine
	dirNode [dirPages]*page
)

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
	codec    ecc.Codec
	nCheck   int // codec.CheckBytes()
	root     []*dirNode
	touched  int // materialized lines
	stats    Stats

	// stuck holds the stuck-at faults of the few lines that have any;
	// Write consults it only when it is non-empty.
	stuck map[uint64]*stuckCells

	// ECP state (EnableECP).
	ecpBudget    int
	ecp          map[uint64][]ecpEntry
	ecpExhausted uint64

	// hook, when set, observes every write boundary (chaos injection).
	hook inject.Hook
	tel  telemetryHooks

	// rdBuf shields the read path from an interface-escape allocation:
	// slices passed through the ecc.Codec interface are assumed by the
	// compiler to escape, so a read of a settled line decodes in this owned
	// buffer instead of a stack one. A fresh line is read straight from its
	// record, and settle encodes in place. The device, like the controller
	// driving it, is single-goroutine.
	rdBuf Line
}

// telemetryHooks holds the device's metric handles; nil handles (no
// registry attached) are no-ops.
type telemetryHooks struct {
	reads         *telemetry.Counter
	writes        *telemetry.Counter
	corrected     *telemetry.Counter
	uncorrectable *telemetry.Counter
}

// AttachTelemetry registers the device's metrics on r (nil detaches).
func (d *Device) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		d.tel = telemetryHooks{}
		return
	}
	d.tel = telemetryHooks{
		reads:         r.Counter("nvm_reads_total"),
		writes:        r.Counter("nvm_writes_total"),
		corrected:     r.Counter("nvm_corrected_lines_total"),
		uncorrectable: r.Counter("nvm_uncorrectable_hits_total"),
	}
}

// SetWriteHook installs (or, with nil, removes) the injection hook fired
// before every line write is applied. A hook that panics with
// inject.PowerLoss models losing power before the write: the array keeps
// its previous contents.
func (d *Device) SetWriteHook(h inject.Hook) { d.hook = h }

// NewDevice creates an NVM device of the given capacity protected by codec.
// Capacity must be a positive multiple of the line size.
func NewDevice(capacity uint64, codec ecc.Codec) (*Device, error) {
	if capacity == 0 || capacity%LineSize != 0 {
		return nil, fmt.Errorf("nvm: capacity %d must be a positive multiple of %d", capacity, LineSize)
	}
	if codec == nil {
		codec = ecc.NoECC{}
	}
	if n := codec.CheckBytes(); n < 0 || n > maxCheckBytes {
		return nil, fmt.Errorf("nvm: codec %s stores %d check bytes per line, a record holds %d", codec.Name(), n, maxCheckBytes)
	}
	d := &Device{capacity: capacity, codec: codec, nCheck: codec.CheckBytes()}
	d.reset()
	return d, nil
}

// reset drops every line, leaving the device as constructed.
func (d *Device) reset() {
	nodeLines := uint64(pageLines * dirPages)
	d.root = make([]*dirNode, (d.capacity/LineSize+nodeLines-1)/nodeLines)
	d.touched = 0
	d.stuck = nil
}

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() uint64 { return d.capacity }

// Codec returns the ECC codec protecting the device.
func (d *Device) Codec() ecc.Codec { return d.codec }

// Lines returns the number of addressable lines.
func (d *Device) Lines() uint64 { return d.capacity / LineSize }

// Stats returns a copy of the accumulated device statistics.
func (d *Device) Stats() Stats { return d.stats }

// WearOf returns the write count of the line containing addr.
func (d *Device) WearOf(addr uint64) uint64 {
	if l := d.lookup(addr / LineSize); l != nil {
		return l.wear
	}
	return 0
}

// TouchedLines returns how many lines have materialized storage.
func (d *Device) TouchedLines() int { return d.touched }

// Materialized reports whether the line containing addr has ever been
// written or faulted. The secure controller uses this for cold-read
// semantics: a never-touched line reads as zeroes without verification.
func (d *Device) Materialized(addr uint64) bool { return d.lookup(addr/LineSize) != nil }

// ForEachTouched visits every materialized line address in ascending order.
// Callers depend on the order: chaos.Injector draws fault targets by
// position, and memctrl.VerifyAll reports the lowest failing block.
func (d *Device) ForEachTouched(fn func(lineAddr uint64)) {
	d.forEach(func(idx uint64, _ *storedLine) { fn(idx * LineSize) })
}

// forEach visits every materialized record in ascending line order.
func (d *Device) forEach(fn func(idx uint64, l *storedLine)) {
	for ni, node := range d.root {
		if node == nil {
			continue
		}
		for pi, p := range node {
			if p == nil {
				continue
			}
			base := (uint64(ni)<<dirShift | uint64(pi)) << pageShift
			for i := range p {
				if p[i].present {
					fn(base|uint64(i), &p[i])
				}
			}
		}
	}
}

func (d *Device) checkAddr(addr uint64) uint64 {
	if addr%LineSize != 0 {
		panic(fmt.Sprintf("nvm: unaligned line address %#x", addr))
	}
	if addr >= d.capacity {
		panic(fmt.Sprintf("nvm: address %#x beyond capacity %#x", addr, d.capacity))
	}
	return addr / LineSize
}

// lookup returns the stored line, or nil when it has not materialized. idx
// may be anything; beyond the capacity nothing is materialized.
func (d *Device) lookup(idx uint64) *storedLine {
	ni := idx >> (pageShift + dirShift)
	if ni >= uint64(len(d.root)) {
		return nil
	}
	node := d.root[ni]
	if node == nil {
		return nil
	}
	p := node[idx>>pageShift&(dirPages-1)]
	if p == nil {
		return nil
	}
	if l := &p[idx&(pageLines-1)]; l.present {
		return l
	}
	return nil
}

// line returns the stored line of an index within the capacity, materializing
// a zero line (and its page and directory node) when absent.
func (d *Device) line(idx uint64) *storedLine {
	np := &d.root[idx>>(pageShift+dirShift)]
	if *np == nil {
		*np = new(dirNode)
	}
	pp := &(*np)[idx>>pageShift&(dirPages-1)]
	if *pp == nil {
		*pp = new(page)
	}
	l := &(*pp)[idx&(pageLines-1)]
	if !l.present {
		l.present = true
		l.fresh = true
		d.touched++
	}
	return l
}

// settle computes a fresh line's check bytes from its cells, the ones an
// encode on every write would have stored. Every fault injection calls it
// before touching cells or check bytes.
func (d *Device) settle(l *storedLine) {
	if l.fresh {
		d.codec.EncodeInto(l.check[:d.nCheck], l.data[:])
		l.fresh = false
	}
}

// Write stores one line at the given (aligned) byte address. Its check bytes
// are left to settle unless the line has stuck cells: those re-assert their
// faulty values after the write, exactly like worn-out PCM cells, under check
// bytes encoded from the intended data.
func (d *Device) Write(addr uint64, data *Line) {
	idx := d.checkAddr(addr)
	if d.hook != nil {
		d.hook.Event(inject.Event{Kind: inject.DeviceWrite, Addr: addr})
	}
	l := d.line(idx)
	l.data = *data
	var stuck *stuckCells
	if len(d.stuck) != 0 {
		stuck = d.stuck[idx]
	}
	if stuck != nil {
		// The controller computes ECC over the data it sends; stuck
		// cells then corrupt the stored copy, so the check bytes
		// reflect the intended value while the array holds the faulty
		// one. (StickBits settled the line, so it is not fresh.)
		d.codec.EncodeInto(l.check[:d.nCheck], l.data[:])
		stuck.assert(&l.data)
		// Write-verify: ECP allocates pointers for the cells that did
		// not take the new value.
		d.ecpRepairAfterWrite(idx, data, l)
	} else {
		l.fresh = true
		if d.ecpBudget > 0 && len(d.ecp) != 0 {
			delete(d.ecp, idx) // healthy write; retire stale pointers
		}
	}
	d.stats.Writes++
	d.tel.writes.Inc()
	l.wear++
}

// assert forces the stuck cells of a line image to their stuck values.
func (s *stuckCells) assert(data *Line) {
	for i := range data {
		data[i] = (data[i] &^ s.mask[i]) | (s.val[i] & s.mask[i])
	}
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
	// granularity used by Soteria's duplicated shadow entries).
	BadWords []int
}

// Read fetches one line, running ECC decode over a settled line. Reads of
// never-written lines return zeroes.
func (d *Device) Read(addr uint64) ReadResult {
	idx := d.checkAddr(addr)
	d.stats.Reads++
	d.tel.reads.Inc()
	l := d.lookup(idx)
	if l == nil {
		return ReadResult{}
	}
	if l.fresh {
		// Nothing to decode: the cells are a clean codeword's data,
		// and ECP has no pointers for a line written without stuck
		// cells.
		return ReadResult{Data: l.data}
	}
	buf := &d.rdBuf
	*buf = l.data
	d.ecpApply(idx, buf)
	check := l.check[:d.nCheck]
	res := d.codec.Decode(buf[:], check)
	if res.Corrected {
		d.stats.CorrectedLines++
		d.tel.corrected.Inc()
		// A patrol-scrub style write-back of the corrected value keeps
		// correctable faults from accumulating, mirroring real
		// controllers (demand scrubbing).
		l.data = *buf
		d.codec.EncodeInto(check, buf[:])
	}
	if res.Uncorrectable {
		d.stats.UncorrectableHits++
		d.tel.uncorrectable.Inc()
	}
	return ReadResult{
		Data:          *buf,
		Corrected:     res.Corrected,
		Uncorrectable: res.Uncorrectable,
		BadWords:      res.BadWords,
	}
}

// ReadRaw returns the raw cell contents without ECC decoding (used by
// recovery paths that want to inspect a corrupt line's surviving words).
func (d *Device) ReadRaw(addr uint64) Line {
	if l := d.lookup(d.checkAddr(addr)); l != nil {
		return l.data
	}
	return Line{}
}

// --- Fault injection -------------------------------------------------------

// FlipBit flips a single data bit: addr addresses the byte, bit the bit
// within it. Under SECDED this is correctable; the next Read repairs it.
func (d *Device) FlipBit(addr uint64, bit uint) {
	idx := addr / LineSize
	d.checkAddr(idx * LineSize)
	l := d.line(idx)
	d.settle(l)
	l.data[addr%LineSize] ^= 1 << (bit % 8)
}

// FlipCheckBit flips one bit of the stored ECC check bytes of the line at
// the given line-aligned address.
func (d *Device) FlipCheckBit(addr uint64, byteIdx int, bit uint) {
	idx := d.checkAddr(addr)
	l := d.line(idx)
	d.settle(l)
	if d.nCheck == 0 {
		return
	}
	l.check[byteIdx%d.nCheck] ^= 1 << (bit % 8)
}

// CorruptWord plants a detectably uncorrectable error in 8-byte word w of
// the line at addr by flipping several bits across distinct symbol lanes.
// Tests assert that both SECDED and Chipkill report it uncorrectable.
func (d *Device) CorruptWord(addr uint64, w int) {
	idx := d.checkAddr(addr)
	l := d.line(idx)
	d.settle(l)
	w = w % 8
	// Flip exactly two bits in two different byte lanes of the word:
	// a double-bit error for SECDED (detected, not corrected) and a
	// double-symbol error for Chipkill (ditto).
	l.data[w*8+0] ^= 0x01
	l.data[w*8+3] ^= 0x80
}

// CorruptLine plants an uncorrectable error in every word of the line —
// the "node is gone" case of Fig 9 step 4.
func (d *Device) CorruptLine(addr uint64) {
	for w := 0; w < 8; w++ {
		d.CorruptWord(addr, w)
	}
}

// StickBits makes the masked bits of the line at addr permanently stuck at
// the corresponding value bits: every subsequent write re-asserts them,
// modelling worn-out PCM cells.
func (d *Device) StickBits(addr uint64, mask, val *Line) {
	idx := d.checkAddr(addr)
	l := d.line(idx)
	d.settle(l)
	s := d.stuck[idx]
	if s == nil {
		if d.stuck == nil {
			d.stuck = make(map[uint64]*stuckCells)
		}
		s = &stuckCells{}
		d.stuck[idx] = s
	}
	for i := range mask {
		s.mask[i] |= mask[i]
		s.val[i] = (s.val[i] &^ mask[i]) | (val[i] & mask[i])
	}
	// Assert immediately on current contents.
	s.assert(&l.data)
}

// ClearFaults removes all injected faults and re-encodes every materialized
// line's ECC from its current contents (a repair-everything escape hatch
// for experiments).
func (d *Device) ClearFaults() {
	d.stuck = nil
	d.forEach(func(_ uint64, l *storedLine) {
		d.codec.EncodeInto(l.check[:d.nCheck], l.data[:])
		l.fresh = false
	})
}
