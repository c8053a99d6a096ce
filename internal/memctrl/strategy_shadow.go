package memctrl

import (
	"fmt"

	"soteria/internal/itree"
	"soteria/internal/metacache"
	"soteria/internal/shadow"
)

// shadowStrategy is the Anubis shadow table with one slot per
// metadata-cache way, in one of its two entry formats (see package shadow).
//
//   - soteria (content=false), the paper's scheme: each entry holds the
//     tracked block's 16-bit counter LSBs plus a keyed content MAC,
//     duplicated into two independently decodable halves (Soteria's
//     resilience twist). Recovery patches stale NVM copies with the LSBs —
//     leaf minors through Osiris trials against the persisted data MACs —
//     and accepts a reconstruction exactly when it reproduces the entry MAC.
//   - anubis-shadow (content=true), the Anubis SMC-style content tracking of
//     Huang & Hua: each entry holds the block's complete 64-byte image, so
//     recovery simply decodes it — no Osiris trials, no stale-copy
//     patching, near-constant work per tracked entry. The trade-offs: twice
//     the shadow-region footprint, two shadow lines per update instead of
//     one, and no duplicated-half resilience (an uncorrectable error in a
//     tracked entry loses it, the gap Soteria's Fig 8b closes).
//
// The table is c.shadow; the controller retires entries itself when a
// block goes clean or its update is lost.
type shadowStrategy struct{ content bool }

func (s *shadowStrategy) name() string {
	if s.content {
		return "anubis-shadow"
	}
	return "soteria"
}

// shadowLines: one shadow line per cache slot (the entry), or two for a
// content entry (header + image); the BMT over them is on chip.
func (s *shadowStrategy) shadowLines(cacheSlots uint64) uint64 {
	if s.content {
		return cacheSlots * shadow.ContentLinesPerSlot
	}
	return cacheSlots
}

// install builds the shadow table over the reserved region; those boot-time
// writes go straight to the device (bootstrap is set by the caller).
func (s *shadowStrategy) install(c *Controller) error {
	var err error
	if s.content {
		c.shadow, err = shadow.NewContentTable(c.eng, c.shadowStore(), c.layout.ShadowBase,
			c.layout.ShadowEntries/shadow.ContentLinesPerSlot)
	} else {
		c.shadow, err = shadow.NewTable(c.eng, c.shadowStore(), c.layout.ShadowBase, c.layout.ShadowEntries, 0,
			shadow.Options{Duplicate: c.mode != ModeBaseline, DisableHalfRepair: c.opt.DisableShadowHalfRepair})
	}
	return err
}

// onDirty (re)writes the entry describing the dirty block at home, resident
// at cache slot way — the Anubis "shadow log" write, made on every
// in-cache modification.
func (s *shadowStrategy) onDirty(c *Controller, home uint64, way int) {
	if c.eager {
		// Eager mode keeps the root fresh on every write; there is no
		// stale state for a shadow entry to recover, so the Anubis log
		// is not maintained.
		return
	}
	blk := c.mcache.At(way)
	if blk.Kind == metacache.KindMAC {
		return
	}
	e := shadow.Entry{Valid: true, Addr: home}
	if s.content {
		e.Image = blk.Line
	} else {
		e.MAC = shadow.ContentMAC(c.eng, home, &blk.Line)
		if blk.Kind == metacache.KindCounter {
			e.LSBs[0] = uint16(blk.Counter().Major())
		} else {
			for i := range e.LSBs {
				e.LSBs[i] = uint16(blk.Node().Counter(i))
			}
		}
	}
	// One shadow-table operation — the entry's lines plus their on-chip
	// BMT leaf MACs — commits atomically from the ADR domain; a torn
	// entry/MAC pair would fail BMT verification and lose the tracked
	// block.
	c.seal("shadow-op")
	err := c.shadow.Write(way, e)
	c.unseal("shadow-op")
	if err != nil {
		panic(fmt.Sprintf("memctrl: shadow write: %v", err))
	}
}

func (s *shadowStrategy) commitLeaf(c *Controller, home uint64, way int) error {
	s.onDirty(c, home, way)
	return nil
}

// needsForce enforces the Osiris bound for LSB entries: the counter may
// not drift further from its NVM copy than recovery can search. A content
// entry is the exact in-cache image, so its counters may drift arbitrarily
// far.
func (s *shadowStrategy) needsForce(c *Controller, blk *metacache.Block, slot int) bool {
	return !s.content && !c.eager && blk.UpdatesPerSlot[slot] >= osirisLimit
}

func (s *shadowStrategy) afterOp(c *Controller) error { return nil }

// onCrash drops the table's volatile valid flags and stats; its lines and
// on-chip BMT survive.
func (s *shadowStrategy) onCrash(c *Controller) { c.shadow.Crash() }

// recover rebuilds a consistent, verifiable memory image after Crash():
//
//  1. Read every entry back through the BMT, which survived on chip;
//     half-dead LSB entries are repaired from their Soteria duplicates.
//  2. Rebuild each tracked metadata block independently. A content entry
//     carries the verified image. An LSB entry is patched onto a stale NVM
//     copy (home or any clone); leaf minors come back through Osiris
//     trials against the persisted data MACs, and the reconstruction is
//     accepted exactly when it reproduces the keyed MAC captured in the
//     entry, which makes recovery insensitive to the order in which a
//     crash tore parent and child write-backs.
//  3. Reseed and flush (reseedRecovered). At every instant each tracked
//     block is described by at least one durable entry, and entries for
//     the same block only coexist while content-identical, so a crash
//     *during* recovery loses nothing: the next Recover starts over.
//  4. Finally clear whatever slots remain valid (unreconstructible blocks,
//     already counted as lost).
func (s *shadowStrategy) recover(c *Controller) (*RecoveryReport, error) {
	tbl := c.shadow
	slotEntries, lostSlots := tbl.LoadAllSlots()
	rep := &RecoveryReport{TrackedEntries: len(slotEntries), LostSlots: lostSlots, HalfRepairs: tbl.Stats().HalfRepairs}
	c.stats.RecoveryLost += uint64(len(lostSlots))
	c.note("recover-load-done")

	// Rebuild every tracked block. Entries are self-contained, so no
	// ordering between levels is needed. Duplicate entries for the same
	// block are a legal artifact of crashing an earlier recovery between
	// re-tracking and slot cleanup, and the copies can disagree: the
	// fresher one has absorbed the parent-counter bumps of that recovery's
	// flush. Every entry is tried, and when several rebuild, the one with
	// the largest counters wins — counters only ever grow, so picking a
	// smaller one would roll the block (and, silently, its already-flushed
	// children) back.
	outside := "shadow entry outside the metadata region"
	if s.content {
		outside = "content entry outside the metadata region"
	}
	recovered := make(map[uint64]metacache.Block)
	failReason := make(map[uint64]string)
	slotsOf := make(map[uint64][]uint64)
	for _, se := range slotEntries {
		e := &se.Entry
		loc := c.layout.Locate(e.Addr)
		if loc.Kind != itree.RegionMetadata {
			rep.FailedBlocks = append(rep.FailedBlocks, FailedBlock{Addr: e.Addr, Reason: outside})
			c.stats.RecoveryLost++
			continue
		}
		slotsOf[e.Addr] = append(slotsOf[e.Addr], se.Slot)
		var blk metacache.Block
		if s.content {
			decodeInto(&blk, loc.Level, loc.Index, &e.Image)
		} else {
			var err error
			if blk, err = c.recoverBlock(loc.Level, loc.Index, e); err != nil {
				if _, seen := failReason[e.Addr]; !seen {
					failReason[e.Addr] = err.Error()
				}
				continue
			}
		}
		if prev, dup := recovered[e.Addr]; !dup || counterTotal(&blk) > counterTotal(&prev) {
			recovered[e.Addr] = blk
		}
	}
	reported := make(map[uint64]bool)
	for _, se := range slotEntries {
		addr := se.Entry.Addr
		if c.layout.Locate(addr).Kind != itree.RegionMetadata {
			continue
		}
		if _, ok := recovered[addr]; ok || reported[addr] {
			continue
		}
		reported[addr] = true
		rep.FailedBlocks = append(rep.FailedBlocks, FailedBlock{Addr: addr, Reason: failReason[addr]})
		c.stats.RecoveryLost++
	}
	rep.RecoveredBlocks = len(recovered)
	c.stats.RecoveredOK += uint64(len(recovered))

	// Fresh volatile state: seed the cache with the rebuilt blocks as
	// dirty — which writes their entries at their new slots — and flush
	// through the ordinary write-back path. The shadow table has one slot
	// per cache way and the tracked blocks were simultaneously resident
	// before the crash, so reinsertion cannot evict.
	if err := c.reseedRecovered(recovered, slotsOf); err != nil {
		return rep, err
	}

	// Cleanup: the flush untracked the re-seeded blocks; what remains
	// valid is stale pre-crash entries at old slots (the blocks moved
	// ways) plus anything the flush had to abandon.
	if err := c.wipeSlots(tbl.ValidSlots(), lostSlots); err != nil {
		return rep, err
	}
	c.note("recover-done")
	return rep, nil
}
