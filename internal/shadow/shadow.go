// Package shadow implements the Anubis shadow table with Soteria's
// resilience modifications (Fig 8 of the paper).
//
// The shadow table lives in NVM and has one slot per (set, way) of the
// volatile metadata cache. Whenever a metadata block is modified in the
// cache, its slot's entry is (re)written; after a crash, recovery reads the
// table back and restores the metadata cache's effects without walking the
// whole tree. A table holds one of two entry formats, fixed at construction:
//
//   - LSB entries (NewTable): one line per slot holding the block's home
//     address, the 16-bit LSBs of its counters and a MAC over its current
//     content. Recovery reconstructs the block from its stale memory copy
//     plus the LSBs and checks the MAC. Soteria's change (Fig 8b): each
//     entry is stored as two identical 32-byte halves that land in
//     different ECC codewords, so an uncorrectable error in one codeword is
//     repaired by copying the surviving half; the counter LSBs shrink from
//     Anubis's 49 bits to 16 bits to make the duplication fit.
//   - Content entries (NewContentTable): the SMC-style tracking of Huang &
//     Hua. Two lines per slot: a header binding the home address to a MAC
//     of the image, and the block's full 64-byte image. Recovery decodes the
//     image, with no stale-copy patching, at twice the footprint and two
//     lines per update. There are no duplicated halves: an uncorrectable
//     error in either line loses the entry.
//
// Either way the whole region is protected against tampering, replay and
// cross-slot swaps by the leaf level of an eagerly updated BMT: one keyed
// MAC per shadow line, bound to its line index and held in on-chip SRAM,
// so each line write costs exactly one tree MAC. The BMT and the NVM lines
// survive power loss; Crash drops only the volatile valid flags and stats.
package shadow

import (
	"encoding/binary"
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
)

// HalfSize is the size of one duplicated entry half: address (8) +
// eight 16-bit counter LSBs (16) + MAC (8).
const HalfSize = 32

// ContentLinesPerSlot is how many NVM lines one content-entry slot
// occupies: a header line (address + image MAC) and the full block image.
const ContentLinesPerSlot = 2

// invalidAddr marks an unoccupied shadow slot.
const invalidAddr = ^uint64(0)

// Entry is the decoded form of one shadow-table slot.
type Entry struct {
	// Valid is false for unoccupied slots.
	Valid bool
	// Addr is the home NVM address of the tracked metadata block.
	Addr uint64
	// LSBs holds the low 16 bits of the block's eight ToC counters; for
	// leaf counter blocks only LSBs[0] is used (major counter LSBs) —
	// minors are recovered by the Osiris data-MAC trials. LSB entries only.
	LSBs [8]uint16
	// MAC authenticates the tracked block's current (in-cache) content. A
	// content entry's MAC is computed by Write over Image.
	MAC uint64
	// Image is the tracked block's full serialized line. Content entries
	// only.
	Image nvm.Line
}

// ContentMAC computes the MAC stored in LSB entries: a keyed MAC over
// the block's serialized content (the 56 content bytes, excluding the
// block's own stored MAC field) bound to its home address.
func ContentMAC(e *ctrenc.Engine, addr uint64, serialized *[nvm.LineSize]byte) uint64 {
	return e.MAC(ctrenc.DomainShadow, addr, 0, serialized[:56])
}

// imageMAC authenticates a content entry's full image, bound to its home
// address. tweak2=1 domain-separates it from the 56-byte ContentMAC
// (tweak2=0), so a content header can never be confused with an LSB entry
// MAC.
func imageMAC(e *ctrenc.Engine, addr uint64, image *nvm.Line) uint64 {
	return e.MAC(ctrenc.DomainShadow, addr, 1, image[:])
}

func (e *Entry) serializeHalf() [HalfSize]byte {
	var h [HalfSize]byte
	if !e.Valid {
		binary.LittleEndian.PutUint64(h[0:8], invalidAddr)
		return h
	}
	binary.LittleEndian.PutUint64(h[0:8], e.Addr)
	for i, v := range e.LSBs {
		binary.LittleEndian.PutUint16(h[8+i*2:10+i*2], v)
	}
	binary.LittleEndian.PutUint64(h[24:32], e.MAC)
	return h
}

func decodeHalf(h []byte) Entry {
	addr := binary.LittleEndian.Uint64(h[0:8])
	if addr == invalidAddr {
		return Entry{}
	}
	e := Entry{Valid: true, Addr: addr}
	for i := range e.LSBs {
		e.LSBs[i] = binary.LittleEndian.Uint16(h[8+i*2 : 10+i*2])
	}
	e.MAC = binary.LittleEndian.Uint64(h[24:32])
	return e
}

// Store is the NVM access the shadow table needs: ordinary line I/O for
// the entries (through the BMT), plus raw access with per-codeword error attribution for the
// half-repair path.
type Store interface {
	itree.LineStore
	// ReadRaw returns the raw cell contents plus the list of 8-byte
	// words whose ECC decode failed and whether the line as a whole is
	// uncorrectable.
	ReadRaw(addr uint64) (line nvm.Line, badWords []int, uncorrectable bool)
}

// Stats counts shadow-table activity.
type Stats struct {
	EntryWrites   uint64
	Invalidations uint64
	HalfRepairs   uint64
	LostEntries   uint64
}

// Table is the shadow table plus its protecting BMT.
type Table struct {
	eng     *ctrenc.Engine
	store   Store
	base    uint64
	slots   uint64
	bmt     *itree.BMT
	content bool // content entries (header + image) instead of LSB entries
	duped   bool // Soteria duplicated halves (vs Anubis single copy)
	norep   bool // debug: skip half-repair (Options.DisableHalfRepair)
	valid   []bool
	// stats counts every event since construction; Stats reports the
	// growth since atCrash, the books as the last Crash left them.
	stats, atCrash Stats
}

// AttachTelemetry exports the shadow-table books to r (nil exports
// nothing) and cascades to the protecting BMT. Content tables use the
// shadow_content_* series, so a registry never mixes the two formats'
// counts; they have no half repairs to count.
func (t *Table) AttachTelemetry(r *telemetry.Registry) {
	t.bmt.AttachTelemetry(r)
	prefix := "shadow_"
	if t.content {
		prefix = "shadow_content_"
	}
	r.Export(prefix+"entry_writes_total", func() uint64 { return t.stats.EntryWrites })
	r.Export(prefix+"invalidations_total", func() uint64 { return t.stats.Invalidations })
	r.Export(prefix+"lost_entries_total", func() uint64 { return t.stats.LostEntries })
	if !t.content {
		r.Export("shadow_half_repairs_total", func() uint64 { return t.stats.HalfRepairs })
	}
}

// Options configures a Table of LSB entries.
type Options struct {
	// Duplicate enables Soteria's duplicated halves; when false the
	// entry occupies only the first half (Anubis baseline, Fig 8a) and
	// a dead codeword in it loses the entry.
	Duplicate bool
	// DisableHalfRepair is a debug-only fault: Load skips the
	// copy-the-surviving-half repair and treats a half-dead entry as
	// lost. It exists so the chaos harness can prove it detects broken
	// recovery paths; never set it in production configurations.
	DisableHalfRepair bool
}

// NewTable creates a fresh table of LSB entries over `slots` lines at base;
// all slots start invalid. The fifth parameter is ignored: it was the NVM
// base of the BMT's nodes, which are now on chip, and stays so existing
// callers keep compiling.
func NewTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64, _ uint64, opt Options) (*Table, error) {
	return newTable(&Table{eng: eng, store: store, base: base, slots: slots,
		duped: opt.Duplicate, norep: opt.DisableHalfRepair})
}

// NewContentTable creates a fresh table of content entries: `slots` slots
// at base, occupying slots*ContentLinesPerSlot lines; all slots start
// invalid.
func NewContentTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64) (*Table, error) {
	return newTable(&Table{eng: eng, store: store, base: base, slots: slots, content: true})
}

// newTable writes every slot of t invalid and hangs the BMT over them.
func newTable(t *Table) (*Table, error) {
	if t.slots == 0 {
		return nil, fmt.Errorf("shadow: need at least one slot")
	}
	t.valid = make([]bool, t.slots)
	var zero nvm.Line
	invalid := t.encode(&Entry{})
	for i := uint64(0); i < t.slots; i++ {
		t.store.WriteLine(t.lineAddr(i), &invalid)
		if t.content {
			t.store.WriteLine(t.lineAddr(i)+nvm.LineSize, &zero)
		}
	}
	bmt, err := itree.NewBMT(t.eng, t.store, t.base, t.slots*t.linesPerSlot(), 0)
	if err != nil {
		return nil, err
	}
	t.bmt = bmt
	return t, nil
}

// Crash models power loss: the valid flags and stats are volatile and
// start afresh, while the NVM lines and the BMT's on-chip leaf MACs
// survive. Load (or LoadAllSlots) brings the flags back from NVM.
func (t *Table) Crash() {
	clear(t.valid)
	t.atCrash = t.stats
}

// Stats returns the activity counters since the last Crash (HalfRepairs is
// always zero for content entries: there are no duplicated halves to
// repair from). The exported telemetry counts on across a Crash.
func (t *Table) Stats() Stats {
	return Stats{
		EntryWrites:   t.stats.EntryWrites - t.atCrash.EntryWrites,
		Invalidations: t.stats.Invalidations - t.atCrash.Invalidations,
		HalfRepairs:   t.stats.HalfRepairs - t.atCrash.HalfRepairs,
		LostEntries:   t.stats.LostEntries - t.atCrash.LostEntries,
	}
}

// Slots returns the number of shadow slots.
func (t *Table) Slots() uint64 { return t.slots }

func (t *Table) linesPerSlot() uint64 {
	if t.content {
		return ContentLinesPerSlot
	}
	return 1
}

// leaf is the BMT index of slot's first line: the LSB entry, or the
// content header (the image is leaf+1).
func (t *Table) leaf(slot uint64) uint64 { return slot * t.linesPerSlot() }

func (t *Table) lineAddr(slot uint64) uint64 { return t.base + t.leaf(slot)*nvm.LineSize }

func (t *Table) checkSlot(slot uint64) error {
	if slot >= t.slots {
		return fmt.Errorf("shadow: slot %d out of range (%d)", slot, t.slots)
	}
	return nil
}

// encode returns slot's first line for e: the LSB entry, or the content
// header binding e.Image to e.Addr.
func (t *Table) encode(e *Entry) nvm.Line {
	var line nvm.Line
	if t.content {
		addr, mac := invalidAddr, uint64(0)
		if e.Valid {
			addr, mac = e.Addr, imageMAC(t.eng, e.Addr, &e.Image)
		}
		binary.LittleEndian.PutUint64(line[0:8], addr)
		binary.LittleEndian.PutUint64(line[8:16], mac)
		return line
	}
	h := e.serializeHalf()
	copy(line[:HalfSize], h[:])
	if t.duped {
		copy(line[HalfSize:], h[:])
	} else {
		// Keep the second half's address field invalid so decode of
		// either half is unambiguous.
		binary.LittleEndian.PutUint64(line[HalfSize:HalfSize+8], invalidAddr)
	}
	return line
}

// Write records entry e in slot i: one NVM line write for an LSB entry, or
// the image then the header binding it for a content entry (line writes
// mostly coalesce in the WPQ), each with its eager on-chip BMT update.
func (t *Table) Write(slot int, e Entry) error {
	if err := t.checkSlot(uint64(slot)); err != nil {
		return err
	}
	leaf := t.leaf(uint64(slot))
	if t.content {
		if err := t.bmt.Update(leaf+1, &e.Image); err != nil {
			return err
		}
	}
	line := t.encode(&e)
	if err := t.bmt.Update(leaf, &line); err != nil {
		return err
	}
	t.valid[slot] = e.Valid
	t.stats.EntryWrites++
	return nil
}

// Invalidate clears slot i if it is currently valid (skipping the write
// when the volatile valid flag already shows it invalid).
func (t *Table) Invalidate(slot int) error {
	if uint64(slot) < t.slots && !t.valid[slot] {
		return nil
	}
	return t.Reset(uint64(slot))
}

// Reset unconditionally writes an invalid entry to the slot, regardless of
// its valid flag — used by recovery to clear slots whose stored entries are
// stale or unreadable before the tracked blocks are re-seeded at (possibly
// different) slots. A content slot's header alone is rewritten; the stale
// image it no longer vouches for is unreachable.
func (t *Table) Reset(slot uint64) error {
	if err := t.checkSlot(slot); err != nil {
		return err
	}
	line := t.encode(&Entry{})
	if err := t.bmt.Update(t.leaf(slot), &line); err != nil {
		return err
	}
	t.valid[slot] = false
	t.stats.Invalidations++
	return nil
}

// lost counts one unrecoverable entry and returns its error.
func (t *Table) lost(format string, args ...any) (Entry, bool, error) {
	t.stats.LostEntries++
	return Entry{}, false, fmt.Errorf(format, args...)
}

// Load reads slot i after a crash and verifies it against the BMT: an LSB
// entry after repairing a half-dead line from its duplicate when possible,
// a content entry's image also against its header MAC. It returns ok=false
// (with no error) for entries whose slot is intact but invalid, and an
// error when the entry is unrecoverable.
func (t *Table) Load(slot uint64) (Entry, bool, error) {
	if err := t.checkSlot(slot); err != nil {
		return Entry{}, false, err
	}
	if t.content {
		return t.loadContent(slot)
	}
	addr := t.lineAddr(slot)
	raw, bad, unc := t.store.ReadRaw(addr)
	if unc {
		if !t.duped || t.norep {
			return t.lost("shadow: slot %d uncorrectable and not duplicated", slot)
		}
		lowBad, highBad := false, false
		for _, w := range bad {
			if w < 4 {
				lowBad = true
			} else {
				highBad = true
			}
		}
		if lowBad && highBad {
			return t.lost("shadow: slot %d lost both halves", slot)
		}
		// Copy the surviving half over the dead one; halves are exact
		// duplicates, so this reconstructs the original line.
		if lowBad {
			copy(raw[:HalfSize], raw[HalfSize:])
		} else {
			copy(raw[HalfSize:], raw[:HalfSize])
		}
		t.store.WriteLine(addr, &raw)
		t.stats.HalfRepairs++
	}
	verified, err := t.bmt.Verify(slot)
	if err != nil {
		return t.lost("shadow: slot %d failed BMT verification: %w", slot, err)
	}
	e := decodeHalf(verified[:HalfSize])
	// Keep the valid flag in sync with what was actually read, so
	// post-crash invalidations are not suppressed by a stale flag.
	t.valid[slot] = e.Valid
	return e, e.Valid, nil
}

// loadContent is Load for a content slot. Any dead line loses the entry.
func (t *Table) loadContent(slot uint64) (Entry, bool, error) {
	leaf := t.leaf(slot)
	header, err := t.bmt.Verify(leaf)
	if err != nil {
		return t.lost("shadow: content slot %d header: %w", slot, err)
	}
	e := Entry{Addr: binary.LittleEndian.Uint64(header[0:8]), MAC: binary.LittleEndian.Uint64(header[8:16])}
	if e.Addr == invalidAddr {
		t.valid[slot] = false
		return Entry{}, false, nil
	}
	if e.Image, err = t.bmt.Verify(leaf + 1); err != nil {
		return t.lost("shadow: content slot %d image: %w", slot, err)
	}
	if imageMAC(t.eng, e.Addr, &e.Image) != e.MAC {
		return t.lost("shadow: content slot %d image fails header MAC", slot)
	}
	e.Valid = true
	t.valid[slot] = true
	return e, true, nil
}

// ValidSlots lists every slot whose volatile valid flag is set (after
// LoadAllSlots, the slots that tracked blocks before the crash; during
// operation, the slots of dirty cached blocks).
func (t *Table) ValidSlots() []uint64 {
	var out []uint64
	for i, v := range t.valid {
		if v {
			out = append(out, uint64(i))
		}
	}
	return out
}

// SlotEntry pairs a recovered entry with the slot it was read from.
type SlotEntry struct {
	Slot  uint64
	Entry Entry
}

// LoadAllSlots returns every valid entry (with its slot) plus the slots
// that could not be recovered.
func (t *Table) LoadAllSlots() (entries []SlotEntry, lost []uint64) {
	for i := uint64(0); i < t.slots; i++ {
		e, ok, err := t.Load(i)
		if err != nil {
			lost = append(lost, i)
			continue
		}
		if ok {
			entries = append(entries, SlotEntry{Slot: i, Entry: e})
		}
	}
	return entries, lost
}
