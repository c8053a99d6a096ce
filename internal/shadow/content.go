// Anubis-style full-content shadow table (the "SMC shadow" flavour of
// Anubis, Huang & Hua): instead of Soteria's 16-bit counter LSBs, every
// tracked metadata block's complete 64-byte image is persisted alongside a
// header binding it to its home address. Recovery is then near-constant
// work per entry — decode the image, done — with no Osiris trials and no
// stale-copy patching, at the cost of twice the shadow-region footprint and
// two shadow lines per update instead of one. There is no duplicated-half
// resilience: an uncorrectable error in either line loses the entry (the
// documented Anubis trade-off that Soteria's Fig 8b addresses).
package shadow

import (
	"encoding/binary"
	"fmt"

	"soteria/internal/ctrenc"
	"soteria/internal/itree"
	"soteria/internal/nvm"
	"soteria/internal/telemetry"
)

// ContentLinesPerSlot is how many NVM lines one content-table slot
// occupies: a header line (address + content MAC) and the full block image.
const ContentLinesPerSlot = 2

// contentMAC authenticates a tracked block's full image, bound to its home
// address. tweak2=1 domain-separates it from the 56-byte half-entry
// ContentMAC (tweak2=0), so a content header can never be confused with a
// Soteria entry MAC.
func contentMAC(e *ctrenc.Engine, addr uint64, content *nvm.Line) uint64 {
	return e.MAC(ctrenc.DomainShadow, addr, 1, content[:])
}

// ContentTable is the Anubis full-content shadow table plus its protecting
// BMT. One slot per metadata-cache way, two lines per slot.
type ContentTable struct {
	eng    *ctrenc.Engine
	store  Store
	base   uint64
	slots  uint64
	bmt    *itree.BMT
	mirror []contentMirror
	stats  Stats
	tel    contentTelemetry
}

type contentMirror struct {
	valid bool
	addr  uint64
}

type contentTelemetry struct {
	entryWrites   *telemetry.Counter
	invalidations *telemetry.Counter
	lostEntries   *telemetry.Counter
}

// AttachTelemetry registers the content-table metrics on r (nil detaches)
// and cascades to the protecting BMT. The series are distinct from the
// Soteria table's so a registry never mixes the two schemes' counts.
func (t *ContentTable) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		t.tel = contentTelemetry{}
		t.bmt.AttachTelemetry(nil)
		return
	}
	t.tel = contentTelemetry{
		entryWrites:   r.Counter("shadow_content_entry_writes_total"),
		invalidations: r.Counter("shadow_content_invalidations_total"),
		lostEntries:   r.Counter("shadow_content_lost_entries_total"),
	}
	t.bmt.AttachTelemetry(r)
}

func (t *ContentTable) headerAddr(slot uint64) uint64 {
	return t.base + slot*ContentLinesPerSlot*nvm.LineSize
}

func (t *ContentTable) contentAddr(slot uint64) uint64 {
	return t.headerAddr(slot) + nvm.LineSize
}

func encodeContentHeader(addr uint64, mac uint64) nvm.Line {
	var line nvm.Line
	binary.LittleEndian.PutUint64(line[0:8], addr)
	binary.LittleEndian.PutUint64(line[8:16], mac)
	return line
}

// NewContentTable creates a fresh content table of `slots` slots at base
// (occupying slots*ContentLinesPerSlot lines); all slots start invalid.
func NewContentTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64) (*ContentTable, error) {
	if slots == 0 {
		return nil, fmt.Errorf("shadow: need at least one content slot")
	}
	t := newContentTable(eng, store, base, slots)
	var zero nvm.Line
	invalid := encodeContentHeader(invalidAddr, 0)
	for i := uint64(0); i < slots; i++ {
		store.WriteLine(t.headerAddr(i), &invalid)
		store.WriteLine(t.contentAddr(i), &zero)
	}
	bmt, err := itree.NewBMT(eng, store, base, slots*ContentLinesPerSlot, 0)
	if err != nil {
		return nil, err
	}
	t.bmt = bmt
	return t, nil
}

// AttachContent reconnects to an existing content table after a crash.
// bmt is the table's tree, which survived in ADR-backed on-chip SRAM; the
// table's mirror and stats are volatile and start afresh. No writes are
// performed.
func AttachContent(eng *ctrenc.Engine, store Store, base uint64, slots uint64, bmt *itree.BMT) *ContentTable {
	t := newContentTable(eng, store, base, slots)
	t.bmt = bmt
	return t
}

// newContentTable returns a content table with an empty mirror and no BMT
// yet.
func newContentTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64) *ContentTable {
	return &ContentTable{
		eng:    eng,
		store:  store,
		base:   base,
		slots:  slots,
		mirror: make([]contentMirror, slots),
	}
}

// Tree returns the table's BMT, which must be kept in ADR-backed on-chip
// SRAM across power loss.
func (t *ContentTable) Tree() *itree.BMT { return t.bmt }

// Stats returns a copy of the activity counters (HalfRepairs is always
// zero: the content table has no duplicated halves to repair from).
func (t *ContentTable) Stats() Stats { return t.stats }

// Slots returns the number of content-table slots.
func (t *ContentTable) Slots() uint64 { return t.slots }

// Write records the full image of the tracked block at addr in slot i: the
// content line, then the header binding it (two NVM line writes, which
// mostly coalesce in the WPQ, plus their eager on-chip BMT updates).
func (t *ContentTable) Write(slot int, addr uint64, content *nvm.Line) error {
	if uint64(slot) >= t.slots {
		return fmt.Errorf("shadow: content slot %d out of range (%d)", slot, t.slots)
	}
	if err := t.bmt.Update(uint64(slot)*ContentLinesPerSlot+1, content); err != nil {
		return err
	}
	header := encodeContentHeader(addr, contentMAC(t.eng, addr, content))
	if err := t.bmt.Update(uint64(slot)*ContentLinesPerSlot, &header); err != nil {
		return err
	}
	t.mirror[slot] = contentMirror{valid: true, addr: addr}
	t.stats.EntryWrites++
	t.tel.entryWrites.Inc()
	return nil
}

// Invalidate clears slot i if it is currently valid (skipping the write
// when the in-memory mirror already shows it invalid). Only the header is
// rewritten; the stale image it no longer vouches for is unreachable.
func (t *ContentTable) Invalidate(slot int) error {
	if uint64(slot) >= t.slots {
		return fmt.Errorf("shadow: content slot %d out of range (%d)", slot, t.slots)
	}
	if !t.mirror[slot].valid {
		return nil
	}
	header := encodeContentHeader(invalidAddr, 0)
	if err := t.bmt.Update(uint64(slot)*ContentLinesPerSlot, &header); err != nil {
		return err
	}
	t.mirror[slot] = contentMirror{}
	t.stats.Invalidations++
	t.tel.invalidations.Inc()
	return nil
}

// Load reads slot i after a crash, verifying both lines against the BMT
// and the image against its header MAC. It returns ok=false (with no
// error) for intact-but-invalid slots, and an error when the entry is
// unrecoverable (there is no half-repair: any dead line loses the entry).
func (t *ContentTable) Load(slot uint64) (addr uint64, content nvm.Line, ok bool, err error) {
	if slot >= t.slots {
		return 0, content, false, fmt.Errorf("shadow: content slot %d out of range (%d)", slot, t.slots)
	}
	header, err := t.bmt.Verify(slot * ContentLinesPerSlot)
	if err != nil {
		t.stats.LostEntries++
		t.tel.lostEntries.Inc()
		return 0, content, false, fmt.Errorf("shadow: content slot %d header: %w", slot, err)
	}
	addr = binary.LittleEndian.Uint64(header[0:8])
	if addr == invalidAddr {
		t.mirror[slot] = contentMirror{}
		return 0, content, false, nil
	}
	content, err = t.bmt.Verify(slot*ContentLinesPerSlot + 1)
	if err != nil {
		t.stats.LostEntries++
		t.tel.lostEntries.Inc()
		return 0, content, false, fmt.Errorf("shadow: content slot %d image: %w", slot, err)
	}
	if contentMAC(t.eng, addr, &content) != binary.LittleEndian.Uint64(header[8:16]) {
		t.stats.LostEntries++
		t.tel.lostEntries.Inc()
		return 0, content, false, fmt.Errorf("shadow: content slot %d image fails header MAC", slot)
	}
	// Keep the volatile mirror in sync with what was actually read, so
	// post-crash invalidations are not suppressed by a stale mirror.
	t.mirror[slot] = contentMirror{valid: true, addr: addr}
	return addr, content, true, nil
}

// ValidSlots lists every slot whose in-memory mirror currently holds a
// valid entry.
func (t *ContentTable) ValidSlots() []uint64 {
	var out []uint64
	for i := uint64(0); i < t.slots; i++ {
		if t.mirror[i].valid {
			out = append(out, i)
		}
	}
	return out
}

// ContentSlotEntry pairs a recovered block image with the slot it was read
// from and its home address.
type ContentSlotEntry struct {
	Slot uint64
	Addr uint64
	Line nvm.Line
}

// LoadAllSlots returns every valid entry (with its slot) plus the slots
// that could not be recovered.
func (t *ContentTable) LoadAllSlots() (entries []ContentSlotEntry, lost []uint64) {
	for i := uint64(0); i < t.slots; i++ {
		addr, line, ok, err := t.Load(i)
		if err != nil {
			lost = append(lost, i)
			continue
		}
		if ok {
			entries = append(entries, ContentSlotEntry{Slot: i, Addr: addr, Line: line})
		}
	}
	return entries, lost
}

// Reset unconditionally writes an invalid header to the slot, regardless
// of the mirror — used by recovery to clear slots whose stored entries are
// stale or unreadable before the tracked blocks are re-seeded.
func (t *ContentTable) Reset(slot uint64) error {
	if slot >= t.slots {
		return fmt.Errorf("shadow: content slot %d out of range (%d)", slot, t.slots)
	}
	header := encodeContentHeader(invalidAddr, 0)
	if err := t.bmt.Update(slot*ContentLinesPerSlot, &header); err != nil {
		return err
	}
	t.mirror[slot] = contentMirror{}
	t.stats.Invalidations++
	t.tel.invalidations.Inc()
	return nil
}
