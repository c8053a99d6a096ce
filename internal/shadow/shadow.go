// Package shadow implements the Anubis shadow table with Soteria's
// resilience modifications (Fig 8 of the paper).
//
// The shadow table lives in NVM and has one 64-byte entry per (set, way)
// slot of the volatile metadata cache. Whenever a metadata block is
// modified in the cache, its slot's shadow entry is (re)written with the
// block's home address, the 16-bit LSBs of its counters, and a MAC over the
// block's current content. After a crash, recovery reads the shadow table,
// reconstructs each tracked block from its stale memory copy plus the LSBs,
// and checks the MAC — restoring the metadata cache's effects without
// walking the whole tree.
//
// Soteria's change (Fig 8b): each entry is stored as two identical 32-byte
// halves that land in different ECC codewords, so an uncorrectable error in
// one codeword is repaired by copying the surviving half; and the counter
// LSBs shrink from Anubis's 49 bits to 16 bits to make the duplication fit.
// The whole region is protected against tampering, replay and cross-slot
// swaps by the leaf level of an eagerly updated BMT: one keyed MAC per
// shadow line, bound to its slot and held in on-chip SRAM, so each entry
// write costs exactly one tree MAC.
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
	// minors are recovered by the Osiris data-MAC trials.
	LSBs [8]uint16
	// MAC authenticates the tracked block's current (in-cache) content.
	MAC uint64
}

// ContentMAC computes the MAC stored in shadow entries: a keyed MAC over
// the block's serialized content (the 56 content bytes, excluding the
// block's own stored MAC field) bound to its home address.
func ContentMAC(e *ctrenc.Engine, addr uint64, serialized *[nvm.LineSize]byte) uint64 {
	return e.MAC(ctrenc.DomainShadow, addr, 0, serialized[:56])
}

func (e Entry) serializeHalf() [HalfSize]byte {
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
	eng    *ctrenc.Engine
	store  Store
	base   uint64
	slots  uint64
	bmt    *itree.BMT
	duped  bool // Soteria duplicated halves (vs Anubis single copy)
	norep  bool // debug: skip half-repair (Options.DisableHalfRepair)
	mirror []Entry
	stats  Stats
	tel    telemetryHooks
}

// telemetryHooks holds the table's metric handles; nil handles (no
// registry attached) are no-ops.
type telemetryHooks struct {
	entryWrites   *telemetry.Counter
	invalidations *telemetry.Counter
	halfRepairs   *telemetry.Counter
	lostEntries   *telemetry.Counter
}

// AttachTelemetry registers the shadow-table metrics on r (nil detaches)
// and cascades to the protecting BMT.
func (t *Table) AttachTelemetry(r *telemetry.Registry) {
	if r == nil {
		t.tel = telemetryHooks{}
		t.bmt.AttachTelemetry(nil)
		return
	}
	t.tel = telemetryHooks{
		entryWrites:   r.Counter("shadow_entry_writes_total"),
		invalidations: r.Counter("shadow_invalidations_total"),
		halfRepairs:   r.Counter("shadow_half_repairs_total"),
		lostEntries:   r.Counter("shadow_lost_entries_total"),
	}
	t.bmt.AttachTelemetry(r)
}

// Options configures a Table.
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

// NewTable creates a fresh shadow table over `slots` entries at base; all
// slots start invalid. The last parameter is ignored: it was the NVM base
// of the BMT's nodes, which are now on chip, and stays so existing callers
// keep compiling.
func NewTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64, _ uint64, opt Options) (*Table, error) {
	if slots == 0 {
		return nil, fmt.Errorf("shadow: need at least one slot")
	}
	t := newTable(eng, store, base, slots, opt)
	// Initialize all slots to invalid before hanging the BMT over them.
	line := t.encode(Entry{})
	for i := uint64(0); i < slots; i++ {
		store.WriteLine(base+i*nvm.LineSize, &line)
	}
	bmt, err := itree.NewBMT(eng, store, base, slots, 0)
	if err != nil {
		return nil, err
	}
	t.bmt = bmt
	return t, nil
}

// Attach reconnects to an existing shadow table after a crash. bmt is the
// table's tree, which survived in ADR-backed on-chip SRAM; the table's
// mirror and stats are volatile and start afresh. No writes are performed.
func Attach(eng *ctrenc.Engine, store Store, base uint64, slots uint64, bmt *itree.BMT, opt Options) *Table {
	t := newTable(eng, store, base, slots, opt)
	t.bmt = bmt
	return t
}

// newTable returns a table with an empty mirror and no BMT yet.
func newTable(eng *ctrenc.Engine, store Store, base uint64, slots uint64, opt Options) *Table {
	return &Table{
		eng:    eng,
		store:  store,
		base:   base,
		slots:  slots,
		duped:  opt.Duplicate,
		norep:  opt.DisableHalfRepair,
		mirror: make([]Entry, slots),
	}
}

// Tree returns the table's BMT, which must be kept in ADR-backed on-chip
// SRAM across power loss.
func (t *Table) Tree() *itree.BMT { return t.bmt }

// Stats returns a copy of the activity counters.
func (t *Table) Stats() Stats { return t.stats }

// Slots returns the number of shadow slots.
func (t *Table) Slots() uint64 { return t.slots }

func (t *Table) encode(e Entry) nvm.Line {
	var line nvm.Line
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

// Write records entry e in slot i: one NVM line write, which mostly
// coalesces in the WPQ, plus the eager on-chip BMT update.
func (t *Table) Write(slot int, e Entry) error {
	if uint64(slot) >= t.slots {
		return fmt.Errorf("shadow: slot %d out of range (%d)", slot, t.slots)
	}
	line := t.encode(e)
	if err := t.bmt.Update(uint64(slot), &line); err != nil {
		return err
	}
	t.mirror[slot] = e
	t.stats.EntryWrites++
	t.tel.entryWrites.Inc()
	return nil
}

// Invalidate clears slot i if it is currently valid (skipping the write
// when the in-memory mirror already shows it invalid).
func (t *Table) Invalidate(slot int) error {
	if uint64(slot) >= t.slots {
		return fmt.Errorf("shadow: slot %d out of range (%d)", slot, t.slots)
	}
	if !t.mirror[slot].Valid {
		return nil
	}
	line := t.encode(Entry{})
	if err := t.bmt.Update(uint64(slot), &line); err != nil {
		return err
	}
	t.mirror[slot] = Entry{}
	t.stats.Invalidations++
	t.tel.invalidations.Inc()
	return nil
}

// Load reads slot i after a crash, repairing a half-dead entry from its
// duplicate when possible and verifying the result against the BMT. It
// returns ok=false (with no error) for entries whose slot is intact but
// invalid, and an error when the entry is unrecoverable.
func (t *Table) Load(slot uint64) (Entry, bool, error) {
	if slot >= t.slots {
		return Entry{}, false, fmt.Errorf("shadow: slot %d out of range (%d)", slot, t.slots)
	}
	addr := t.base + slot*nvm.LineSize
	raw, bad, unc := t.store.ReadRaw(addr)
	if unc {
		if !t.duped || t.norep {
			t.stats.LostEntries++
			t.tel.lostEntries.Inc()
			return Entry{}, false, fmt.Errorf("shadow: slot %d uncorrectable and not duplicated", slot)
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
			t.stats.LostEntries++
			t.tel.lostEntries.Inc()
			return Entry{}, false, fmt.Errorf("shadow: slot %d lost both halves", slot)
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
		t.tel.halfRepairs.Inc()
	}
	verified, err := t.bmt.Verify(slot)
	if err != nil {
		t.stats.LostEntries++
		t.tel.lostEntries.Inc()
		return Entry{}, false, fmt.Errorf("shadow: slot %d failed BMT verification: %w", slot, err)
	}
	e := decodeHalf(verified[:HalfSize])
	// Keep the volatile mirror in sync with what was actually read, so
	// post-crash invalidations are not suppressed by a stale mirror.
	t.mirror[slot] = e
	if !e.Valid {
		return Entry{}, false, nil
	}
	return e, true, nil
}

// ValidSlots lists every slot whose in-memory mirror currently holds a
// valid entry (after LoadAllSlots, the slots that tracked blocks before
// the crash; during operation, the slots of dirty cached blocks).
func (t *Table) ValidSlots() []uint64 {
	var out []uint64
	for i := uint64(0); i < t.slots; i++ {
		if t.mirror[i].Valid {
			out = append(out, i)
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

// Reset unconditionally writes an invalid entry to the slot, regardless of
// the mirror — used by recovery to clear slots whose stored entries are
// stale or unreadable before the tracked blocks are re-seeded at (possibly
// different) slots.
func (t *Table) Reset(slot uint64) error {
	if slot >= t.slots {
		return fmt.Errorf("shadow: slot %d out of range (%d)", slot, t.slots)
	}
	line := t.encode(Entry{})
	if err := t.bmt.Update(slot, &line); err != nil {
		return err
	}
	t.mirror[slot] = Entry{}
	t.stats.Invalidations++
	t.tel.invalidations.Inc()
	return nil
}

// LoadAll returns every valid entry recovered from the table, plus the
// slots that could not be recovered.
func (t *Table) LoadAll() (entries []Entry, lost []uint64) {
	for i := uint64(0); i < t.slots; i++ {
		e, ok, err := t.Load(i)
		if err != nil {
			lost = append(lost, i)
			continue
		}
		if ok {
			entries = append(entries, e)
		}
	}
	return entries, lost
}
